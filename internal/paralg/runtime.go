package paralg

// The runtime-portable face of the package: the Runtime interface the
// algorithms fork through, the one generic Cell interface every edge of
// every structure is made of, and the converters between cell structures
// and the sequential ones. Two runtimes implement it: GoRuntime
// (goruntime.go), where a fork is a goroutine and a touch of an
// unwritten cell blocks one, and SchedRuntime (schedrt.go), where a fork
// is a deque task and the same touch parks only the continuation. The
// Ctx value threads the current scheduling context (a *sched.Worker, or
// nil on the Go runtime) through every fork and touch, mirroring how
// costalg threads *core.Ctx.

import (
	"fmt"

	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/t26"
)

// Ctx is the opaque per-task scheduling context. The Go runtime ignores
// it; the sched runtime passes the current *sched.Worker so forks and
// reactivations land on the local deque. Algorithm code only threads it.
type Ctx = any

// Runtime abstracts the task machinery an algorithm needs. Cells are
// made by NewCell and DoneCell, which know both implementations:
// GoRuntime and *SchedRuntime.
type Runtime interface {
	// Name identifies the runtime in benchmark output.
	Name() string
	// Fork schedules f as an independent task. ctx must be the value the
	// caller's own task received (or nil from outside the runtime).
	Fork(ctx Ctx, f func(Ctx))
}

// Cell is a one-shot future on some runtime: a tree edge, a list tail,
// or an algorithm's result.
type Cell[T any] interface {
	// Write resolves the cell. Writing twice panics.
	Write(ctx Ctx, v T)
	// Touch runs k(ctx', v) once the cell is written: immediately when it
	// already is, otherwise by suspending k until the write.
	Touch(ctx Ctx, k func(Ctx, T))
	// TryRead returns the value and true if the cell is written, without
	// waiting.
	TryRead() (T, bool)
	// Read blocks until the cell is written. Call it only from outside
	// the runtime's workers (tests, converters, benchmarks).
	Read() T
}

// NodeCell is a one-shot future holding a treap/BST node.
type NodeCell = Cell[*RNode]

// T26Cell is a one-shot future holding a 2-6 tree node.
type T26Cell = Cell[*RT26Node]

// NewCell returns a fresh unwritten cell on runtime r.
func NewCell[T any](r Runtime) Cell[T] {
	switch r := r.(type) {
	case *SchedRuntime:
		return newSchedCell[T](r)
	case GoRuntime:
		return newGoCell[T]()
	}
	panic(fmt.Sprintf("paralg: unsupported Runtime %T", r))
}

// DoneCell returns a cell on runtime r already holding v. On the sched
// runtime it counts in CellsShared, so per-runtime cell budgets include
// converter-built inputs.
func DoneCell[T any](r Runtime, v T) Cell[T] {
	switch r := r.(type) {
	case *SchedRuntime:
		return doneSchedCell(r, v)
	case GoRuntime:
		return doneGoCell(v)
	}
	panic(fmt.Sprintf("paralg: unsupported Runtime %T", r))
}

// RNode is a BST/treap node whose children are cells. A cell holding
// nil is an empty subtree.
type RNode struct {
	Key   int
	Prio  int64
	Left  NodeCell
	Right NodeCell
}

// RT26Node is a 2-6 tree node whose children are cells (Section 3.4).
type RT26Node struct {
	Keys []int
	Kids []T26Cell // nil for leaf
}

// IsLeaf reports whether n is a leaf.
func (n *RT26Node) IsLeaf() bool { return len(n.Kids) == 0 }

// --- converters -----------------------------------------------------------

// RFromSeqTree converts a sequential BST into a materialized cell tree.
func RFromSeqTree(r Runtime, t *seqtree.Node) NodeCell {
	if t == nil {
		return DoneCell[*RNode](r, nil)
	}
	return DoneCell(r, &RNode{Key: t.Key, Left: RFromSeqTree(r, t.Left), Right: RFromSeqTree(r, t.Right)})
}

// RFromSeqTreap converts a sequential treap into a materialized cell tree.
func RFromSeqTreap(r Runtime, t *seqtreap.Node) NodeCell {
	if t == nil {
		return DoneCell[*RNode](r, nil)
	}
	return DoneCell(r, &RNode{Key: t.Key, Prio: t.Prio, Left: RFromSeqTreap(r, t.Left), Right: RFromSeqTreap(r, t.Right)})
}

// RToSeqTree reads the whole tree (blocking until complete) back into a
// sequential BST. External callers only.
func RToSeqTree(t NodeCell) *seqtree.Node {
	n := t.Read()
	if n == nil {
		return nil
	}
	return &seqtree.Node{Key: n.Key, Left: RToSeqTree(n.Left), Right: RToSeqTree(n.Right)}
}

// RToSeqTreap reads the whole tree back into a sequential treap.
func RToSeqTreap(t NodeCell) *seqtreap.Node {
	n := t.Read()
	if n == nil {
		return nil
	}
	return &seqtreap.Node{Key: n.Key, Prio: n.Prio, Left: RToSeqTreap(n.Left), Right: RToSeqTreap(n.Right)}
}

// RWait blocks until every cell of the tree is written — the barrier the
// benchmarks time. External callers only.
func RWait(t NodeCell) {
	n := t.Read()
	if n == nil {
		return
	}
	RWait(n.Left)
	RWait(n.Right)
}

// RFromSeqT26 converts a sequential 2-6 tree into a materialized cell tree.
func RFromSeqT26(r Runtime, t *t26.Node) T26Cell {
	n := &RT26Node{Keys: append([]int(nil), t.Keys...)}
	for _, kid := range t.Kids {
		n.Kids = append(n.Kids, RFromSeqT26(r, kid))
	}
	return DoneCell(r, n)
}

// RToSeqT26 reads the whole tree back (blocking until complete).
func RToSeqT26(t T26Cell) *t26.Node {
	n := t.Read()
	out := &t26.Node{Keys: append([]int(nil), n.Keys...)}
	for _, kid := range n.Kids {
		out.Kids = append(out.Kids, RToSeqT26(kid))
	}
	return out
}

// RWaitT26 blocks until every cell of the tree is written.
func RWaitT26(t T26Cell) {
	n := t.Read()
	for _, kid := range n.Kids {
		RWaitT26(kid)
	}
}

// RFromSlice builds a fully materialized list.
func RFromSlice(r Runtime, xs []int) Cell[*RLNode] {
	tail := DoneCell[*RLNode](r, nil)
	for i := len(xs) - 1; i >= 0; i-- {
		tail = DoneCell(r, &RLNode{Head: xs[i], Tail: tail})
	}
	return tail
}

// RToSlice reads the whole list (blocking as needed). External callers
// only.
func RToSlice(l Cell[*RLNode]) []int {
	var out []int
	for n := l.Read(); n != nil; n = n.Tail.Read() {
		out = append(out, n.Head)
	}
	return out
}
