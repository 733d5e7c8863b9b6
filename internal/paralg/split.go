package paralg

// Range-splitting entry points on RConfig — the routing primitive of the
// sharded serving layer (internal/serve). A router that partitions the
// key space across independent shard roots needs to cut one mutation's
// operand treap at the shard boundaries; these entry points do that cut
// as pipelined splits, so the per-shard pieces are available as cells
// immediately and materialize concurrently while each shard's own
// pipeline is already consuming them.

// Split divides treap t into the keys < pivot and the keys ≥ pivot. Both
// result cells return immediately and materialize concurrently (the
// rsplit of Figure 12 in CPS form); t may itself still be under
// construction. ctx follows the Fork contract.
func (c RConfig) Split(ctx Ctx, t NodeCell, pivot int) (lt, ge NodeCell) {
	return c.rsplit(ctx, 0, pivot, t)
}

// SplitRanges splits t at every pivot of the ascending pivots slice,
// returning len(pivots)+1 treaps: piece 0 holds the keys below
// pivots[0], piece i the keys in [pivots[i-1], pivots[i]), and the last
// piece the keys from pivots[len-1] up. The splits chain left to right —
// each split consumes the ≥-side cell of the previous one while that
// side is still materializing — so the whole partition is one pipeline,
// not len(pivots) barriers. With no pivots the result is just {t}.
func (c RConfig) SplitRanges(ctx Ctx, t NodeCell, pivots []int) []NodeCell {
	out := make([]NodeCell, 0, len(pivots)+1)
	rest := t
	for i, p := range pivots {
		if i > 0 && pivots[i-1] > p {
			panic("paralg: SplitRanges pivots not ascending")
		}
		lt, ge := c.rsplit(ctx, 0, p, rest)
		out = append(out, lt)
		rest = ge
	}
	return append(out, rest)
}
