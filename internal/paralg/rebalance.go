package paralg

// The rebalancing pass at the end of Section 3.1: annotate a tree with
// subtree sizes, then rebuild it perfectly balanced by pipelined rank
// splits. MergeBalanced composes it with Merge.

// RSNode is a size-annotated tree node: Size counts the subtree, LSize
// its left subtree.
type RSNode struct {
	Key   int
	Prio  int64
	Size  int
	LSize int
	Left  Cell[*RSNode]
	Right Cell[*RSNode]
}

func sizeOf(n *RSNode) int {
	if n == nil {
		return 0
	}
	return n.Size
}

// Annotate computes subtree sizes bottom up. A node's cell is written
// once both of its children are annotated.
func (c RConfig) Annotate(ctx Ctx, tree NodeCell) Cell[*RSNode] {
	out := NewCell[*RSNode](c.R)
	c.annotateInto(ctx, 0, tree, out)
	return out
}

func (c RConfig) annotateInto(ctx Ctx, d int, tree NodeCell, out Cell[*RSNode]) {
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RNode) {
			if n == nil {
				out.Write(ctx, nil)
				return
			}
			lc, rc := NewCell[*RSNode](c.R), NewCell[*RSNode](c.R)
			c.annotateInto(ctx, d+1, n.Left, lc)
			c.annotateInto(ctx, d+1, n.Right, rc)
			lc.Touch(ctx, func(ctx Ctx, l *RSNode) {
				rc.Touch(ctx, func(ctx Ctx, r *RSNode) {
					ls := sizeOf(l)
					out.Write(ctx, &RSNode{
						Key: n.Key, Prio: n.Prio,
						Size: 1 + ls + sizeOf(r), LSize: ls,
						Left: lc, Right: rc,
					})
				})
			})
		})
	})
}

// Rebalance rebuilds the size-annotated tree (of known size n) perfectly
// balanced, pipelining the rank splits into the recursive rebalances.
func (c RConfig) Rebalance(ctx Ctx, tree Cell[*RSNode], n int) NodeCell {
	out := NewCell[*RNode](c.R)
	c.rebalanceInto(ctx, 0, tree, n, out)
	return out
}

func (c RConfig) rebalanceInto(ctx Ctx, d int, tree Cell[*RSNode], n int, out NodeCell) {
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, root *RSNode) {
			if n == 0 {
				out.Write(ctx, nil)
				return
			}
			mid := n / 2
			at, lo, ro := c.splitRank(ctx, d, root, mid)
			l, r := NewCell[*RNode](c.R), NewCell[*RNode](c.R)
			c.rebalanceInto(ctx, d+1, lo, mid, l)
			c.rebalanceInto(ctx, d+1, ro, n-mid-1, r)
			at.Touch(ctx, func(ctx Ctx, a *RSNode) {
				out.Write(ctx, &RNode{Key: a.Key, Prio: a.Prio, Left: l, Right: r})
			})
		})
	})
}

// splitRank splits the tree rooted at the already-read node n into the
// node of rank r and the trees of the ranks below and above it. Like
// rsplitM, the near-side output is written at once around the recursive
// cell and the far side is forwarded from the recursion.
func (c RConfig) splitRank(ctx Ctx, d int, n *RSNode, r int) (at, lt, gt Cell[*RSNode]) {
	ao, lo, ro := NewCell[*RSNode](c.R), NewCell[*RSNode](c.R), NewCell[*RSNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) { c.splitRankBody(ctx, d, n, r, ao, lo, ro) })
	return ao, lo, ro
}

func (c RConfig) splitRankBody(ctx Ctx, d int, n *RSNode, r int, ao, lo, ro Cell[*RSNode]) {
	if n == nil {
		panic("paralg: rank out of range in splitRank")
	}
	switch {
	case r < n.LSize:
		a1, l1, r1 := c.splitRankCell(ctx, d+1, n.Left, r)
		ro.Write(ctx, &RSNode{
			Key: n.Key, Prio: n.Prio,
			Size: n.Size - r - 1, LSize: n.LSize - r - 1,
			Left: r1, Right: n.Right,
		})
		a1.Touch(ctx, ao.Write)
		l1.Touch(ctx, lo.Write)
	case r == n.LSize:
		ao.Write(ctx, n)
		n.Left.Touch(ctx, lo.Write)
		n.Right.Touch(ctx, ro.Write)
	default:
		a1, l1, r1 := c.splitRankCell(ctx, d+1, n.Right, r-n.LSize-1)
		lo.Write(ctx, &RSNode{
			Key: n.Key, Prio: n.Prio,
			Size: r, LSize: n.LSize,
			Left: n.Left, Right: l1,
		})
		a1.Touch(ctx, ao.Write)
		r1.Touch(ctx, ro.Write)
	}
}

func (c RConfig) splitRankCell(ctx Ctx, d int, tree Cell[*RSNode], r int) (at, lt, gt Cell[*RSNode]) {
	ao, lo, ro := NewCell[*RSNode](c.R), NewCell[*RSNode](c.R), NewCell[*RSNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RSNode) { c.splitRankBody(ctx, d, n, r, ao, lo, ro) })
	})
	return ao, lo, ro
}

// MergeBalanced merges two trees with disjoint key sets and rebalances
// the result (total keys) — the full Section 3.1 composition. It never
// coarsens.
func (c RConfig) MergeBalanced(ctx Ctx, a, b NodeCell, total int) NodeCell {
	c.GrainCutoff = 0
	return c.Rebalance(ctx, c.Annotate(ctx, c.Merge(ctx, a, b)), total)
}
