package paralg

// 2-6 tree insertion (Section 3.4) in continuation-passing style. The
// root of each insertion's result is written as soon as its key
// structure is decided, so the next well-separated key array starts
// descending while the previous one is still working its way down.

import (
	"fmt"
	"sort"

	"pipefut/internal/t26"
)

const t26SplitThreshold = 3

// T26Insert inserts one well-separated sorted key array (Section 3.4) on
// runtime c.R and returns the new root cell immediately.
func (c RConfig) T26Insert(ctx Ctx, tree T26Cell, ws []int) T26Cell {
	out := NewCell[*RT26Node](c.R)
	run := func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RT26Node) {
			if len(ws) == 0 {
				out.Write(ctx, n)
				return
			}
			if len(n.Keys) >= t26SplitThreshold {
				l, mid, r := splitRT26Node(n)
				n = &RT26Node{Keys: []int{mid}, Kids: []T26Cell{DoneCell(c.R, l), DoneCell(c.R, r)}}
			}
			c.t26InsertInto(ctx, 0, n, ws, out)
		})
	}
	if c.SpawnDepth > 0 {
		c.R.Fork(ctx, run)
	} else {
		run(ctx)
	}
	return out
}

// T26BulkInsert pipelines the level arrays through the tree: each
// insertion starts as soon as the previous root cell is written.
func (c RConfig) T26BulkInsert(ctx Ctx, tree T26Cell, levels [][]int) T26Cell {
	for _, lv := range levels {
		tree = c.T26Insert(ctx, tree, lv)
	}
	return tree
}

func splitRT26Node(n *RT26Node) (l *RT26Node, mid int, r *RT26Node) {
	m := len(n.Keys) / 2
	mid = n.Keys[m]
	l = &RT26Node{Keys: append([]int(nil), n.Keys[:m]...)}
	r = &RT26Node{Keys: append([]int(nil), n.Keys[m+1:]...)}
	if !n.IsLeaf() {
		l.Kids = append([]T26Cell(nil), n.Kids[:m+1]...)
		r.Kids = append([]T26Cell(nil), n.Kids[m+1:]...)
	}
	return l, mid, r
}

// t26InsertInto inserts ws below the already-read node n: the
// descending loop over partitions is a continuation chain, each child
// touch resuming the loop at the next lower index. newKeys/newKids are touched by exactly
// one continuation at a time (the chain is a single logical thread;
// the cell's write→touch edge orders the handoff), so no locking.
func (c RConfig) t26InsertInto(ctx Ctx, d int, n *RT26Node, ws []int, out T26Cell) {
	if n.IsLeaf() {
		merged := mergeUniqueKeys(n.Keys, ws)
		if len(merged) > t26.MaxKeys {
			panic(fmt.Sprintf("paralg: leaf would hold %d keys — insert array not well separated", len(merged)))
		}
		out.Write(ctx, &RT26Node{Keys: merged})
		return
	}
	parts := partitionKeys(ws, n.Keys)
	newKeys := append([]int(nil), n.Keys...)
	newKids := append([]T26Cell(nil), n.Kids...)
	var step func(ctx Ctx, i int)
	step = func(ctx Ctx, i int) {
		for ; i >= 0; i-- {
			sub := parts[i]
			if len(sub) == 0 {
				continue
			}
			i := i
			newKids[i].Touch(ctx, func(ctx Ctx, child *RT26Node) {
				if len(child.Keys) >= t26SplitThreshold {
					l, mid, r := splitRT26Node(child)
					wl, wr := splitKeysAround(sub, mid)
					nl, nr := DoneCell(c.R, l), DoneCell(c.R, r)
					if len(wl) > 0 {
						nl = c.rt26Recurse(ctx, d+1, l, wl)
					}
					if len(wr) > 0 {
						nr = c.rt26Recurse(ctx, d+1, r, wr)
					}
					newKeys = insertKeyAt(newKeys, i, mid)
					newKids[i] = nl
					newKids = insertT26CellAt(newKids, i+1, nr)
				} else {
					newKids[i] = c.rt26Recurse(ctx, d+1, child, sub)
				}
				step(ctx, i-1)
			})
			return // the loop continues inside the touch continuation
		}
		if len(newKeys) > t26.MaxKeys {
			panic(fmt.Sprintf("paralg: node would hold %d keys — invariant violated", len(newKeys)))
		}
		out.Write(ctx, &RT26Node{Keys: newKeys, Kids: newKids})
	}
	step(ctx, len(parts)-1)
}

func (c RConfig) rt26Recurse(ctx Ctx, d int, n *RT26Node, ws []int) T26Cell {
	out := NewCell[*RT26Node](c.R)
	c.fork(ctx, d, func(ctx Ctx) { c.t26InsertInto(ctx, d, n, ws, out) })
	return out
}

func insertT26CellAt(xs []T26Cell, i int, v T26Cell) []T26Cell {
	xs = append(xs, nil)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// --- sorted-array helpers (same semantics as the sequential oracle) ------

func partitionKeys(ws []int, keys []int) [][]int {
	out := make([][]int, 0, len(keys)+1)
	rest := ws
	for _, k := range keys {
		i := sort.SearchInts(rest, k)
		out = append(out, rest[:i])
		if i < len(rest) && rest[i] == k {
			i++
		}
		rest = rest[i:]
	}
	return append(out, rest)
}

func splitKeysAround(ws []int, k int) (lt, gt []int) {
	i := sort.SearchInts(ws, k)
	lt = ws[:i]
	if i < len(ws) && ws[i] == k {
		i++
	}
	return lt, ws[i:]
}

func insertKeyAt(xs []int, i, v int) []int {
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func mergeUniqueKeys(a, b []int) []int {
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
