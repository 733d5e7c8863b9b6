package paralg

// The tree algorithms of Sections 3.1-3.3, and the Section 5 mergesort,
// in continuation-passing style: every place the paper's code reads a
// cell, these methods Touch it and continue in the callback. On
// GoRuntime a touch of an unwritten cell blocks a goroutine; on
// SchedRuntime it parks only the continuation, which is what lets a
// million suspended threads share p goroutines.
//
// Each output node is written as soon as its key is decided, and its
// child cells are filled afterwards, so consumers walk the result's
// upper levels while the lower ones are still being computed: the
// pipelining the paper is about.

import "pipefut/internal/seqtreap"

// Merge merges two binary search trees with disjoint key sets (Section
// 3.1) on runtime c.R and returns the result cell immediately; nodes
// materialize concurrently. ctx follows the Fork contract (current
// worker context, or nil from outside the runtime).
func (c RConfig) Merge(ctx Ctx, a, b NodeCell) NodeCell {
	out := NewCell[*RNode](c.R)
	c.mergeInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) mergeInto(ctx Ctx, d int, a, b NodeCell, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		// Below-cutoff: one sequential merge, one frontier cell.
		out.Write(ctx, chunkTop(chunkMerge(ta, tb)))
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				b.Touch(ctx, out.Write)
				return
			}
			lt, ge := c.rsplit(ctx, d, n1.Key, b)
			nl, nr := NewCell[*RNode](c.R), NewCell[*RNode](c.R)
			out.Write(ctx, &RNode{Key: n1.Key, Prio: n1.Prio, Left: nl, Right: nr})
			c.mergeInto(ctx, d+1, n1.Left, lt, nl)
			c.mergeInto(ctx, d+1, n1.Right, ge, nr)
		})
	})
}

// rsplit divides tree by s into keys < s and keys ≥ s with independently
// written result cells — Figure 12 in CPS form: the near-side output is
// written immediately with the recursive cell as a child, the far-side
// cell is forwarded from the recursion by a touch.
func (c RConfig) rsplit(ctx Ctx, d int, s int, tree NodeCell) (lt, ge NodeCell) {
	if t, ok := c.chunkArg(tree); ok {
		// Below-cutoff: split sequentially into two chunks, zero cells.
		l, g := chunkSplitGE(s, t)
		return chunkCell(l), chunkCell(g)
	}
	lo, ro := NewCell[*RNode](c.R), NewCell[*RNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RNode) {
			if n == nil {
				lo.Write(ctx, nil)
				ro.Write(ctx, nil)
				return
			}
			if s <= n.Key {
				l1, r1 := c.rsplit(ctx, d+1, s, n.Left)
				ro.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: r1, Right: n.Right})
				l1.Touch(ctx, lo.Write)
			} else {
				l1, r1 := c.rsplit(ctx, d+1, s, n.Right)
				lo.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: n.Left, Right: l1})
				r1.Touch(ctx, ro.Write)
			}
		})
	})
	return lo, ro
}

// Union returns the union of two treaps, discarding duplicates (Section
// 3.2), on runtime c.R.
func (c RConfig) Union(ctx Ctx, a, b NodeCell) NodeCell {
	out := NewCell[*RNode](c.R)
	c.unionInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) unionInto(ctx Ctx, d int, a, b NodeCell, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		// Treap shapes are priority-determined, so the sequential union
		// is node-for-node the tree the pipelined recursion would build.
		out.Write(ctx, chunkTop(seqtreap.Union(ta, tb)))
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				b.Touch(ctx, out.Write)
				return
			}
			b.Touch(ctx, func(ctx Ctx, n2 *RNode) {
				if n2 == nil {
					out.Write(ctx, n1)
					return
				}
				hi, lo := n1, n2
				if hi.Prio < lo.Prio {
					hi, lo = lo, hi
				}
				l2, r2, _ := c.rsplitM(ctx, d, hi.Key, lo)
				nl, nr := NewCell[*RNode](c.R), NewCell[*RNode](c.R)
				out.Write(ctx, &RNode{Key: hi.Key, Prio: hi.Prio, Left: nl, Right: nr})
				c.unionInto(ctx, d+1, hi.Left, l2, nl)
				c.unionInto(ctx, d+1, hi.Right, r2, nr)
			})
		})
	})
}

// rsplitM splits the treap rooted at the already-read node around s,
// excluding and reporting s itself if present (Union discards the
// duplicate cell; Diff and Intersect branch on it).
func (c RConfig) rsplitM(ctx Ctx, d int, s int, n *RNode) (lt, gt, dup NodeCell) {
	lo, ro, do := NewCell[*RNode](c.R), NewCell[*RNode](c.R), NewCell[*RNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) { c.rsplitMBody(ctx, d, s, n, lo, ro, do) })
	return lo, ro, do
}

func (c RConfig) rsplitMBody(ctx Ctx, d int, s int, n *RNode, lo, ro, do NodeCell) {
	if n == nil {
		lo.Write(ctx, nil)
		ro.Write(ctx, nil)
		do.Write(ctx, nil)
		return
	}
	switch {
	case s == n.Key:
		do.Write(ctx, n)
		n.Left.Touch(ctx, lo.Write)
		n.Right.Touch(ctx, ro.Write)
	case s < n.Key:
		l1, r1, d1 := c.rsplitMCell(ctx, d+1, s, n.Left)
		ro.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: r1, Right: n.Right})
		d1.Touch(ctx, do.Write)
		l1.Touch(ctx, lo.Write)
	default:
		l1, r1, d1 := c.rsplitMCell(ctx, d+1, s, n.Right)
		lo.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: n.Left, Right: l1})
		d1.Touch(ctx, do.Write)
		r1.Touch(ctx, ro.Write)
	}
}

func (c RConfig) rsplitMCell(ctx Ctx, d int, s int, tree NodeCell) (lt, gt, dup NodeCell) {
	if t, ok := c.chunkArg(tree); ok {
		// Below-cutoff: the consumers only nil-test (or discard) dup, so
		// wrapping the excluded node as a chunk preserves the contract.
		l, g, du := seqtreap.SplitM(s, t)
		return chunkCell(l), chunkCell(g), chunkCell(du)
	}
	lo, ro, do := NewCell[*RNode](c.R), NewCell[*RNode](c.R), NewCell[*RNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RNode) { c.rsplitMBody(ctx, d, s, n, lo, ro, do) })
	})
	return lo, ro, do
}

// Diff returns treap a with every key of treap b removed (Section 3.3)
// on runtime c.R. It cannot write an output node before knowing whether
// the node's key survives, so the write waits on the duplicate cell —
// but both child differences recurse eagerly.
func (c RConfig) Diff(ctx Ctx, a, b NodeCell) NodeCell {
	out := NewCell[*RNode](c.R)
	c.diffInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) diffInto(ctx Ctx, d int, a, b, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		out.Write(ctx, chunkTop(seqtreap.Diff(ta, tb)))
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				out.Write(ctx, nil)
				return
			}
			b.Touch(ctx, func(ctx Ctx, n2 *RNode) {
				if n2 == nil {
					out.Write(ctx, n1)
					return
				}
				l2, r2, dup := c.rsplitM(ctx, d, n1.Key, n2)
				l, r := NewCell[*RNode](c.R), NewCell[*RNode](c.R)
				c.diffInto(ctx, d+1, n1.Left, l2, l)
				c.diffInto(ctx, d+1, n1.Right, r2, r)
				dup.Touch(ctx, func(ctx Ctx, dn *RNode) {
					if dn == nil {
						out.Write(ctx, &RNode{Key: n1.Key, Prio: n1.Prio, Left: l, Right: r})
						return
					}
					c.joinInto(ctx, d, l, r, out)
				})
			})
		})
	})
}

// Intersect returns the treap of keys present in both treaps — the
// extension companion of Union and Diff, pipelined the same way.
func (c RConfig) Intersect(ctx Ctx, a, b NodeCell) NodeCell {
	out := NewCell[*RNode](c.R)
	c.intersectInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) intersectInto(ctx Ctx, d int, a, b, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		out.Write(ctx, chunkTop(seqtreap.Intersect(ta, tb)))
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				out.Write(ctx, nil)
				return
			}
			b.Touch(ctx, func(ctx Ctx, n2 *RNode) {
				if n2 == nil {
					out.Write(ctx, nil)
					return
				}
				l2, r2, dup := c.rsplitM(ctx, d, n1.Key, n2)
				l, r := NewCell[*RNode](c.R), NewCell[*RNode](c.R)
				c.intersectInto(ctx, d+1, n1.Left, l2, l)
				c.intersectInto(ctx, d+1, n1.Right, r2, r)
				dup.Touch(ctx, func(ctx Ctx, dn *RNode) {
					if dn != nil {
						out.Write(ctx, &RNode{Key: n1.Key, Prio: n1.Prio, Left: l, Right: r})
						return
					}
					c.joinInto(ctx, d, l, r, out)
				})
			})
		})
	})
}

// Join joins two treaps where every key of a precedes every key of b.
func (c RConfig) Join(ctx Ctx, a, b NodeCell) NodeCell {
	out := NewCell[*RNode](c.R)
	c.fork(ctx, 0, func(ctx Ctx) { c.joinInto(ctx, 0, a, b, out) })
	return out
}

func (c RConfig) joinInto(ctx Ctx, d int, a, b, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		out.Write(ctx, chunkTop(seqtreap.Join(ta, tb)))
		return
	}
	a.Touch(ctx, func(ctx Ctx, na *RNode) {
		if na == nil {
			b.Touch(ctx, out.Write)
			return
		}
		b.Touch(ctx, func(ctx Ctx, nb *RNode) {
			if nb == nil {
				out.Write(ctx, na)
				return
			}
			c.joinNodesInto(ctx, d, na, nb, out)
		})
	})
}

// joinNodesInto joins two non-empty treaps along the seam. The winning
// root is written before the recursive join below it resolves, so
// consumers see the result's spine early.
func (c RConfig) joinNodesInto(ctx Ctx, d int, na, nb *RNode, out NodeCell) {
	if na.Prio > nb.Prio {
		right := NewCell[*RNode](c.R)
		out.Write(ctx, &RNode{Key: na.Key, Prio: na.Prio, Left: na.Left, Right: right})
		c.fork(ctx, d, func(ctx Ctx) {
			na.Right.Touch(ctx, func(ctx Ctx, r *RNode) {
				if r == nil {
					right.Write(ctx, nb) // nothing right of the seam in a: the rest is all of b
					return
				}
				c.joinNodesInto(ctx, d+1, r, nb, right)
			})
		})
		return
	}
	left := NewCell[*RNode](c.R)
	out.Write(ctx, &RNode{Key: nb.Key, Prio: nb.Prio, Left: left, Right: nb.Right})
	c.fork(ctx, d, func(ctx Ctx) {
		nb.Left.Touch(ctx, func(ctx Ctx, l *RNode) {
			if l == nil {
				left.Write(ctx, na)
				return
			}
			c.joinNodesInto(ctx, d+1, na, l, left)
		})
	})
}

// Mergesort sorts xs into a binary search tree by recursive halving and
// the pipelined Merge — the Section 5 conjecture, executed for real.
// Duplicates stay (adjacent in key order). It never coarsens.
func (c RConfig) Mergesort(ctx Ctx, xs []int) NodeCell {
	c.GrainCutoff = 0
	return c.msort(ctx, 0, xs)
}

func (c RConfig) msort(ctx Ctx, d int, xs []int) NodeCell {
	switch len(xs) {
	case 0:
		return DoneCell[*RNode](c.R, nil)
	case 1:
		return DoneCell(c.R, &RNode{Key: xs[0], Left: DoneCell[*RNode](c.R, nil), Right: DoneCell[*RNode](c.R, nil)})
	}
	out := NewCell[*RNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) {
		a := c.msort(ctx, d+1, xs[:len(xs)/2])
		b := c.msort(ctx, d+1, xs[len(xs)/2:])
		c.mergeInto(ctx, d+1, a, b, out)
	})
	return out
}
