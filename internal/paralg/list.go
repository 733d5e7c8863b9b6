package paralg

// Streams (Figures 1 and 2): lists whose tails are cells, so producers
// and consumers overlap. Produce, Consume and Quicksort use the same CPS
// as the tree algorithms, with one extra rule. A touch of a written cell
// runs its continuation inline, so a walk that recursed once per element
// would nest one stack frame per element of a materialized list. The
// walks here loop over the tails that are already written and suspend
// only at one that is not (await).

import "sync/atomic"

// RLNode is a cons cell whose tail is a cell: one element of a stream.
type RLNode struct {
	Head int
	Tail Cell[*RLNode]
}

// await is Touch for loops. If c's value is there by the time the touch
// returns (it was written, it arrived meanwhile, or the runtime's touch
// blocked for it, as GoRuntime's does), await returns it with ok=true
// and the caller carries on in its own loop and stack frame. Otherwise
// it returns ok=false, and k runs with the value once it is written.
func await[T any](ctx Ctx, c Cell[T], k func(Ctx, T)) (v T, ok bool) {
	if v, ok := c.TryRead(); ok {
		return v, true
	}
	// state: 0 while touching; 1 once the value was handed back before
	// the touch returned; 2 once the touch returned first, so k owns the
	// value.
	var state atomic.Int32
	var got T
	c.Touch(ctx, func(ctx Ctx, v T) {
		got = v
		if state.CompareAndSwap(0, 1) {
			return
		}
		k(ctx, v)
	})
	if state.CompareAndSwap(0, 2) {
		return v, false
	}
	return got, true
}

// Produce builds the stream n, n-1, ..., 0 (Figure 1's producer) and
// returns its head cell at once. Each task writes chunk elements and
// forks the rest, so the stream keeps arriving while consumers read it;
// with SpawnDepth 0 it is built in the caller.
func (c RConfig) Produce(ctx Ctx, n, chunk int) Cell[*RLNode] {
	if chunk < 1 {
		chunk = 1
	}
	out := NewCell[*RLNode](c.R)
	c.fork(ctx, 0, func(ctx Ctx) { c.produceInto(ctx, n, chunk, out) })
	return out
}

func (c RConfig) produceInto(ctx Ctx, n, chunk int, out Cell[*RLNode]) {
	for ; n >= 0; n -= chunk {
		head := &RLNode{Head: n}
		cur := head
		for i := 1; i < chunk && n-i >= 0; i++ {
			next := &RLNode{Head: n - i}
			cur.Tail = DoneCell(c.R, next)
			cur = next
		}
		rest := NewCell[*RLNode](c.R)
		cur.Tail = rest
		out.Write(ctx, head)
		if c.SpawnDepth > 0 {
			n := n - chunk
			c.R.Fork(ctx, func(ctx Ctx) { c.produceInto(ctx, n, chunk, rest) })
			return
		}
		out = rest
	}
	out.Write(ctx, nil)
}

// walk calls visit on every element of the stream from the already-read
// node n on, in order, then done. It suspends only at unwritten tails.
func walk(ctx Ctx, n *RLNode, visit func(int), done func(Ctx)) {
	var step func(Ctx, *RLNode)
	step = func(ctx Ctx, n *RLNode) {
		for n != nil {
			visit(n.Head)
			var ok bool
			if n, ok = await(ctx, n.Tail, step); !ok {
				return
			}
		}
		done(ctx)
	}
	step(ctx, n)
}

// Consume sums a (possibly still materializing) stream (Figure 1's
// consumer) and returns the cell the sum is written to.
func (c RConfig) Consume(ctx Ctx, l Cell[*RLNode]) Cell[int64] {
	out := NewCell[int64](c.R)
	var sum int64
	c.fork(ctx, 0, func(ctx Ctx) {
		l.Touch(ctx, func(ctx Ctx, n *RLNode) {
			walk(ctx, n, func(x int) { sum += int64(x) }, func(ctx Ctx) { out.Write(ctx, sum) })
		})
	})
	return out
}

// Quicksort is Halstead's future-based quicksort (Figure 2): it returns
// the cell of l sorted and followed by rest. Pivots partition streams
// that are still arriving, so the sorted output overlaps its input.
func (c RConfig) Quicksort(ctx Ctx, l, rest Cell[*RLNode]) Cell[*RLNode] {
	out := NewCell[*RLNode](c.R)
	c.qsInto(ctx, 0, l, rest, out)
	return out
}

func (c RConfig) qsInto(ctx Ctx, d int, l, rest, out Cell[*RLNode]) {
	c.fork(ctx, d, func(ctx Ctx) {
		l.Touch(ctx, func(ctx Ctx, n *RLNode) { c.qsFrom(ctx, d, n, rest, out) })
	})
}

// qsFrom sorts the list headed by the already-read node n onto rest.
// Each pivot forks the sort of its ≥ side at depth d+1; the < side stays
// at depth d and becomes the next iteration of the loop.
func (c RConfig) qsFrom(ctx Ctx, d int, n *RLNode, rest, out Cell[*RLNode]) {
	for n != nil {
		les, grt := c.partition(ctx, d, n.Head, n.Tail)
		sorted := NewCell[*RLNode](c.R)
		c.qsInto(ctx, d+1, grt, rest, sorted)
		r := DoneCell(c.R, &RLNode{Head: n.Head, Tail: sorted})
		rest = r
		var ok bool
		if n, ok = await(ctx, les, func(ctx Ctx, n *RLNode) { c.qsFrom(ctx, d, n, r, out) }); !ok {
			return
		}
	}
	rest.Touch(ctx, out.Write)
}

// partition splits the stream l around pivot into the elements < pivot
// and the rest, both as streams. Above the grain every element forks the
// partition of its tail, so each output element is written as soon as
// it is read; below it, seqPartition walks the remainder in one task.
func (c RConfig) partition(ctx Ctx, d int, pivot int, l Cell[*RLNode]) (les, grt Cell[*RLNode]) {
	lo, gro := NewCell[*RLNode](c.R), NewCell[*RLNode](c.R)
	c.fork(ctx, d, func(ctx Ctx) {
		l.Touch(ctx, func(ctx Ctx, n *RLNode) {
			switch {
			case n == nil:
				lo.Write(ctx, nil)
				gro.Write(ctx, nil)
			case d >= c.SpawnDepth:
				c.seqPartition(ctx, pivot, n, lo, gro)
			case n.Head < pivot:
				l1, g1 := c.partition(ctx, d+1, pivot, n.Tail)
				lo.Write(ctx, &RLNode{Head: n.Head, Tail: l1})
				g1.Touch(ctx, gro.Write)
			default:
				l1, g1 := c.partition(ctx, d+1, pivot, n.Tail)
				gro.Write(ctx, &RLNode{Head: n.Head, Tail: g1})
				l1.Touch(ctx, lo.Write)
			}
		})
	})
	return lo, gro
}

// seqPartition partitions the stream from the already-read node n in one
// task and writes both outputs when the input ends.
func (c RConfig) seqPartition(ctx Ctx, pivot int, n *RLNode, lo, gro Cell[*RLNode]) {
	var les, grt listBuilder
	walk(ctx, n, func(x int) {
		if x < pivot {
			les.push(c.R, x)
		} else {
			grt.push(c.R, x)
		}
	}, func(ctx Ctx) {
		lo.Write(ctx, les.finish(c.R))
		gro.Write(ctx, grt.finish(c.R))
	})
}

// listBuilder appends to a list nobody can see yet, so its tails are
// born written.
type listBuilder struct{ head, last *RLNode }

func (b *listBuilder) push(r Runtime, x int) {
	node := &RLNode{Head: x}
	if b.last == nil {
		b.head = node
	} else {
		b.last.Tail = DoneCell(r, node)
	}
	b.last = node
}

func (b *listBuilder) finish(r Runtime) *RLNode {
	if b.last != nil {
		b.last.Tail = DoneCell[*RLNode](r, nil)
	}
	return b.head
}
