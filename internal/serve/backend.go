package serve

// Backend abstracts the per-shard set store behind the server, so the
// same sharded router, admission controller, and consistent-cut
// machinery can serve more than one data structure. Two backends ship:
//
//   - treap: the pipelined persistent treap of internal/paralg. Apply
//     only *starts* the tree operation and returns the new root cell;
//     materialization rides the scheduler behind the published root, so
//     a burst of mutations becomes one deep pipeline (the paper's
//     claim, served).
//   - t26: the 2-6 tree of paralg.RConfig.T26BulkInsert. Each insertion
//     run pipelines its level arrays internally, but Apply blocks until
//     the run's tree fully materializes before returning — no
//     pipelining across batches. It is the control group: same API,
//     same scheduler, no cross-batch future graph.
//
// The serve bench experiment reports the two backends' throughput side
// by side per (load, p, shards); the difference is what the treap's
// implicit pipelining buys.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"pipefut/internal/paralg"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

// State is a backend-specific immutable snapshot of one shard's set. The
// server publishes (State, version) pairs; queries run against a State
// without interference from later mutations.
type State any

// Operand is a backend-specific form of one mutation piece routed to one
// shard. A nil Operand in a Prepare result means "this shard untouched".
type Operand any

// Backend is the per-shard store interface. Implementations must be safe
// for concurrent use: Prepare runs on client goroutines, Apply and
// Coalesce on shard applier goroutines, queries on scheduler workers.
type Backend interface {
	// Name identifies the backend in metrics and benchmark output.
	Name() string
	// Empty returns the state of an empty shard.
	Empty() State
	// Prepare turns one mutation's sorted distinct key batch into
	// per-shard operands, given the router's ascending shard pivots
	// (len(pivots)+1 shards). Union/difference return nil operands for
	// shards whose key range the batch misses; intersect returns an
	// operand for every shard (an absent key range still clears it).
	Prepare(ctx paralg.Ctx, op Op, keys []int, pivots []int) []Operand
	// Coalesce merges two adjacent same-kind operands into one, following
	// (A∪B1)∪B2 = A∪(B1∪B2) and (A\B1)\B2 = A\(B1∪B2). Never called for
	// intersect (not coalescible).
	Coalesce(ctx paralg.Ctx, op Op, a, b Operand) Operand
	// Apply executes one coalesced run against cur and returns the next
	// state. The treap backend returns immediately (pipelined); the t26
	// backend returns only once the run has materialized.
	Apply(ctx paralg.Ctx, cur State, op Op, opd Operand) State
	// Ready invokes k once st is published enough to answer queries —
	// for the treap, when the result root cell is written (well before
	// the tree materializes); for t26, immediately.
	Ready(st State, k func(paralg.Ctx))
	// Contains reports key's membership in st through continuation k.
	Contains(ctx paralg.Ctx, st State, key int, k func(paralg.Ctx, bool))
	// Len reports st's cardinality through continuation k.
	Len(ctx paralg.Ctx, st State, k func(paralg.Ctx, int))
	// Keys returns st's contents in ascending order, blocking until the
	// state fully materializes. Verification path, external callers only.
	Keys(st State) []int
	// Load rebuilds a shard state from a recovered snapshot's sorted
	// distinct key set (recovery path; the treap build pipelines).
	Load(ctx paralg.Ctx, keys []int) State
	// ReplayOperand turns one recovered WAL record's sorted distinct key
	// batch back into the operand Apply consumes — the recovery twin of
	// Prepare, for a single already-routed shard.
	ReplayOperand(ctx paralg.Ctx, op Op, keys []int) Operand
	// Snapshot reports st's full sorted key set through continuation k,
	// suspending (never blocking) on parts of st that have not
	// materialized — the durability layer's background snapshot walk.
	Snapshot(ctx paralg.Ctx, st State, k func(paralg.Ctx, []int))

	// DAG evaluation (see dag.go): the five methods below lower one
	// operation-DAG node onto the backend. Values are backend-private
	// intermediates, never published as shard states — for the treap a
	// value is a pipelined root cell, so DAGCombine consumes operands
	// that may not have materialized yet and the whole DAG becomes one
	// fused tree pass; for t26 a value is a materialized sorted key
	// slice and each combine is a barrier (the control group, as ever).

	// DAGFromState lifts one shard's snapshot into a DAG value.
	DAGFromState(ctx paralg.Ctx, st State) any
	// DAGFromKeys lifts a literal sorted distinct key slice into a DAG
	// value. The slice is the caller's; implementations must not retain
	// it mutably.
	DAGFromKeys(ctx paralg.Ctx, keys []int) any
	// DAGCombine applies one DAG operation (union, difference,
	// intersect) to two values.
	DAGCombine(ctx paralg.Ctx, op Op, a, b any) any
	// DAGCount reports a DAG value's cardinality through continuation
	// k, suspending (never blocking) on unmaterialized parts.
	DAGCount(ctx paralg.Ctx, v any, k func(paralg.Ctx, int))
	// DAGKeys returns a DAG value's sorted contents, blocking until it
	// fully materializes. Verification path, external callers only.
	DAGKeys(v any) []int
}

// newBackend resolves a backend name ("" defaults to treap).
func newBackend(name string, pc paralg.RConfig) (Backend, error) {
	switch name {
	case "", "treap":
		// The treap backend publishes pipelined roots: Ready parks on an
		// unwritten root and query walks touch cells of trees that are
		// still materializing, concurrently with the applier's next
		// mutation consuming the same root. The cell's waiter list is
		// load-bearing here.
		return treapBackend{pc: pc}, nil
	case "t26":
		// Grain coarsening targets the treap's one-cell-per-node cost;
		// the 2-6-tree entries never coarsen, so the knob could never
		// fire here — zero it to keep the config honest.
		pc.GrainCutoff = 0
		return t26Backend{pc: pc}, nil
	default:
		return nil, fmt.Errorf("serve: unknown backend %q (want treap or t26)", name)
	}
}

// ---- treap backend -------------------------------------------------------

type treapBackend struct{ pc paralg.RConfig }

func (b treapBackend) Name() string { return "treap" }

func (b treapBackend) Empty() State { return paralg.DoneCell[*paralg.RNode](b.pc.R, nil) }

// Prepare builds one operand treap over the whole batch and splits it at
// the shard pivots (paralg.SplitRanges), so the per-shard pieces share
// the build's pipelined work and materialize concurrently while each
// shard's pipeline is already consuming them.
func (b treapBackend) Prepare(ctx paralg.Ctx, op Op, keys []int, pivots []int) []Operand {
	pieces := b.pc.SplitRanges(ctx, b.pc.BuildTreap(ctx, keys), pivots)
	out := make([]Operand, len(pieces))
	for i, piece := range pieces {
		if op == OpIntersect || rangeNonEmpty(keys, pivots, i) {
			out[i] = piece
		}
	}
	return out
}

func (b treapBackend) Coalesce(ctx paralg.Ctx, op Op, a, b2 Operand) Operand {
	// Union and difference operands both coalesce by unioning the
	// operand treaps; the result stays a pipelined cell.
	return b.pc.Union(ctx, a.(paralg.NodeCell), b2.(paralg.NodeCell))
}

func (b treapBackend) Apply(ctx paralg.Ctx, cur State, op Op, opd Operand) State {
	root, piece := cur.(paralg.NodeCell), opd.(paralg.NodeCell)
	switch op {
	case OpUnion, OpInsert:
		return b.pc.Union(ctx, root, piece)
	case OpDifference:
		return b.pc.Diff(ctx, root, piece)
	case OpIntersect:
		return b.pc.Intersect(ctx, root, piece)
	}
	panic("serve: treap backend: unknown op " + string(op))
}

func (b treapBackend) Ready(st State, k func(paralg.Ctx)) {
	st.(paralg.NodeCell).Touch(nil, func(ctx paralg.Ctx, _ *paralg.RNode) { k(ctx) })
}

func (b treapBackend) Contains(ctx paralg.Ctx, st State, key int, k func(paralg.Ctx, bool)) {
	paralg.RContains(ctx, st.(paralg.NodeCell), key, k)
}

func (b treapBackend) Len(ctx paralg.Ctx, st State, k func(paralg.Ctx, int)) {
	paralg.RLen(ctx, st.(paralg.NodeCell), k)
}

func (b treapBackend) Load(ctx paralg.Ctx, keys []int) State {
	return b.pc.BuildTreap(ctx, keys)
}

func (b treapBackend) ReplayOperand(ctx paralg.Ctx, op Op, keys []int) Operand {
	return b.pc.BuildTreap(ctx, keys)
}

func (b treapBackend) Snapshot(ctx paralg.Ctx, st State, k func(paralg.Ctx, []int)) {
	paralg.RSnapshotKeys(ctx, st.(paralg.NodeCell), k)
}

func (b treapBackend) Keys(st State) []int {
	return treapAppendKeys(st.(paralg.NodeCell), nil)
}

func treapAppendKeys(t paralg.NodeCell, out []int) []int {
	n := t.Read()
	if n == nil {
		return out
	}
	out = treapAppendKeys(n.Left, out)
	out = append(out, n.Key)
	return treapAppendKeys(n.Right, out)
}

// DAGFromState is the identity: the snapshot root cell — possibly still
// materializing behind an earlier mutation — *is* the DAG value, which
// is exactly the published-before-materialized contract: downstream
// combines start splitting against it immediately.
func (b treapBackend) DAGFromState(_ paralg.Ctx, st State) any { return st.(paralg.NodeCell) }

func (b treapBackend) DAGFromKeys(ctx paralg.Ctx, keys []int) any {
	return b.pc.BuildTreap(ctx, keys)
}

func (b treapBackend) DAGCombine(ctx paralg.Ctx, op Op, a, b2 any) any {
	x, y := a.(paralg.NodeCell), b2.(paralg.NodeCell)
	switch op {
	case OpUnion:
		return b.pc.Union(ctx, x, y)
	case OpDifference:
		return b.pc.Diff(ctx, x, y)
	case OpIntersect:
		return b.pc.Intersect(ctx, x, y)
	}
	panic("serve: treap backend: unknown dag op " + string(op))
}

func (b treapBackend) DAGCount(ctx paralg.Ctx, v any, k func(paralg.Ctx, int)) {
	paralg.RLen(ctx, v.(paralg.NodeCell), k)
}

func (b treapBackend) DAGKeys(v any) []int {
	return treapAppendKeys(v.(paralg.NodeCell), nil)
}

// ---- t26 backend ---------------------------------------------------------

type t26Backend struct{ pc paralg.RConfig }

func (b t26Backend) Name() string { return "t26" }

func (b t26Backend) Empty() State { return paralg.RFromSeqT26(b.pc.R, t26.Empty()) }

// Prepare slices the sorted batch at the shard pivots; t26 operands stay
// plain sorted key arrays (the level decomposition happens at apply
// time, against the tree the run actually meets).
func (b t26Backend) Prepare(ctx paralg.Ctx, op Op, keys []int, pivots []int) []Operand {
	out := make([]Operand, len(pivots)+1)
	lo := 0
	for i := range out {
		hi := len(keys)
		if i < len(pivots) {
			hi = sort.SearchInts(keys, pivots[i])
		}
		if op == OpIntersect || hi > lo {
			out[i] = append([]int(nil), keys[lo:hi]...)
		}
		lo = hi
	}
	return out
}

func (b t26Backend) Coalesce(_ paralg.Ctx, op Op, a, b2 Operand) Operand {
	return mergeSortedDistinct(a.([]int), b2.([]int))
}

func (b t26Backend) Apply(ctx paralg.Ctx, cur State, op Op, opd Operand) State {
	root, keys := cur.(paralg.T26Cell), opd.([]int)
	switch op {
	case OpUnion, OpInsert:
		// The run's level arrays pipeline through the tree, but the batch
		// as a whole is a barrier: wait for full materialization before
		// handing the state back, so the next run cannot overlap it.
		next := b.pc.T26BulkInsert(ctx, root, workload.WellSeparatedLevels(keys))
		paralg.RWaitT26(next)
		return next
	case OpDifference:
		return paralg.RFromSeqT26(b.pc.R, t26.DeleteAll(paralg.RToSeqT26(root), keys))
	case OpIntersect:
		keep := sortedIntersect(t26.Keys(paralg.RToSeqT26(root)), keys)
		return paralg.RFromSeqT26(b.pc.R, t26.FromKeys(keep))
	}
	panic("serve: t26 backend: unknown op " + string(op))
}

// Ready is immediate: Apply already materialized the state.
func (b t26Backend) Ready(_ State, k func(paralg.Ctx)) { k(nil) }

func (b t26Backend) Contains(ctx paralg.Ctx, st State, key int, k func(paralg.Ctx, bool)) {
	t26ContainsCPS(ctx, st.(paralg.T26Cell), key, k)
}

func t26ContainsCPS(ctx paralg.Ctx, c paralg.T26Cell, key int, k func(paralg.Ctx, bool)) {
	c.Touch(ctx, func(ctx paralg.Ctx, n *paralg.RT26Node) {
		i := sort.SearchInts(n.Keys, key)
		if i < len(n.Keys) && n.Keys[i] == key {
			k(ctx, true)
			return
		}
		if n.IsLeaf() {
			k(ctx, false)
			return
		}
		t26ContainsCPS(ctx, n.Kids[i], key, k)
	})
}

func (b t26Backend) Len(ctx paralg.Ctx, st State, k func(paralg.Ctx, int)) {
	lst := &t26LenState{k: k}
	lst.open.Store(1)
	lst.walk(ctx, st.(paralg.T26Cell))
}

// t26LenState mirrors paralg's rlenState for 2-6 trees: an atomic
// open-walk countdown so continuation nesting stays O(tree height) and
// whichever walk resolves last delivers the total.
type t26LenState struct {
	total atomic.Int64
	open  atomic.Int64
	k     func(paralg.Ctx, int)
}

func (st *t26LenState) walk(ctx paralg.Ctx, c paralg.T26Cell) {
	c.Touch(ctx, func(ctx paralg.Ctx, n *paralg.RT26Node) {
		st.total.Add(int64(len(n.Keys)))
		if n.IsLeaf() {
			if st.open.Add(-1) == 0 {
				st.k(ctx, int(st.total.Load()))
			}
			return
		}
		st.open.Add(int64(len(n.Kids) - 1)) // kids' walks replace this one
		for _, kid := range n.Kids {
			st.walk(ctx, kid)
		}
	})
}

func (b t26Backend) Load(ctx paralg.Ctx, keys []int) State {
	return paralg.RFromSeqT26(b.pc.R, t26.FromKeys(keys))
}

func (b t26Backend) ReplayOperand(_ paralg.Ctx, op Op, keys []int) Operand {
	return append([]int(nil), keys...)
}

// Snapshot is immediate for t26: published states are materialized
// before publish, so the walk never suspends.
func (b t26Backend) Snapshot(ctx paralg.Ctx, st State, k func(paralg.Ctx, []int)) {
	k(ctx, t26AppendKeys(st.(paralg.T26Cell), nil))
}

func (b t26Backend) Keys(st State) []int {
	return t26AppendKeys(st.(paralg.T26Cell), nil)
}

// DAGFromState materializes the shard snapshot into a sorted slice —
// for t26 every published state is already fully built, so this never
// waits; it just fixes the DAG's value representation.
func (b t26Backend) DAGFromState(_ paralg.Ctx, st State) any {
	return t26AppendKeys(st.(paralg.T26Cell), nil)
}

func (b t26Backend) DAGFromKeys(_ paralg.Ctx, keys []int) any { return keys }

func (b t26Backend) DAGCombine(_ paralg.Ctx, op Op, a, b2 any) any {
	x, y := a.([]int), b2.([]int)
	switch op {
	case OpUnion:
		return mergeSortedDistinct(x, y)
	case OpDifference:
		return sortedDiff(x, y)
	case OpIntersect:
		return sortedIntersect(x, y)
	}
	panic("serve: t26 backend: unknown dag op " + string(op))
}

func (b t26Backend) DAGCount(ctx paralg.Ctx, v any, k func(paralg.Ctx, int)) {
	k(ctx, len(v.([]int)))
}

func (b t26Backend) DAGKeys(v any) []int { return v.([]int) }

func t26AppendKeys(c paralg.T26Cell, out []int) []int {
	n := c.Read()
	if n.IsLeaf() {
		return append(out, n.Keys...)
	}
	for i, kid := range n.Kids {
		out = t26AppendKeys(kid, out)
		if i < len(n.Keys) {
			out = append(out, n.Keys[i])
		}
	}
	return out
}

// ---- sorted-array helpers ------------------------------------------------

// rangeNonEmpty reports whether the sorted batch has a key in shard i's
// range under the given pivots.
func rangeNonEmpty(keys []int, pivots []int, i int) bool {
	lo, hi := 0, len(keys)
	if i > 0 {
		lo = sort.SearchInts(keys, pivots[i-1])
	}
	if i < len(pivots) {
		hi = sort.SearchInts(keys, pivots[i])
	}
	return hi > lo
}

func mergeSortedDistinct(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func sortedDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return append(out, a[i:]...)
}

func sortedIntersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
