package main

import (
	"fmt"
	"slices"
	"sort"

	"pipefut/internal/seqtreap"
	"pipefut/internal/serve"
)

// oracle replays every acknowledged mutation into the sequential treap
// of internal/seqtreap, shard by shard in version order (the method of
// the serve package's TestLoadMixedRequestsMatchOracle), so any answer
// the server gave can be checked against the shard states at the
// version or cut the answer observed.
type oracle struct {
	base   []uint64           // per shard: version of states[i][0]
	states [][]*seqtreap.Node // per shard: state after version base+j
	sizes  [][]int            // memoized seqtreap.Size of states, -1 = unknown
	errs   []string
}

type oracleGroup struct {
	kind kind
	keys []int // sorted distinct piece keys
}

// pivotsFor mirrors the server's default shard boundaries.
func pivotsFor(universe int) []int {
	var p []int
	for i := 1; i < shards; i++ {
		p = append(p, universe*i/shards)
	}
	return p
}

// pieceOf returns the keys of sorted that shard i owns.
func pieceOf(pivots []int, sorted []int, i int) []int {
	lo, hi := 0, len(sorted)
	if i > 0 {
		lo = sort.SearchInts(sorted, pivots[i-1])
	}
	if i < len(pivots) {
		hi = sort.SearchInts(sorted, pivots[i])
	}
	return sorted[lo:hi]
}

// newOracle builds the per-shard version histories from the initial
// shard key sets (at versions base) and every acknowledged mutation.
func newOracle(pivots []int, initial [][]int, base []uint64, results []*result) *oracle {
	o := &oracle{base: base}
	byShard := make([]map[uint64]*oracleGroup, shards)
	for i := range byShard {
		byShard[i] = map[uint64]*oracleGroup{}
	}
	for _, r := range results {
		if r.err != nil || !r.req.kind.write() {
			continue
		}
		sorted := sortedDistinct(r.req.keys)
		for i, v := range r.cut {
			if v == 0 {
				continue
			}
			piece := pieceOf(pivots, sorted, i)
			g := byShard[i][v]
			switch {
			case g == nil:
				byShard[i][v] = &oracleGroup{kind: r.req.kind, keys: piece}
			case g.kind != r.req.kind || g.kind == opIntersect:
				o.fail("shard %d version %d coalesces %s with %s", i, v, g.kind, r.req.kind)
			default:
				g.keys = sortedDistinct(append(slices.Clone(g.keys), piece...))
			}
		}
	}
	for i := range shards {
		st := seqtreap.FromKeys(initial[i])
		states := []*seqtreap.Node{st}
		for v := base[i] + 1; ; v++ {
			g := byShard[i][v]
			if g == nil {
				break
			}
			delete(byShard[i], v)
			st = applyGroup(st, g.kind, g.keys)
			states = append(states, st)
		}
		if len(byShard[i]) > 0 {
			o.fail("shard %d: %d acknowledged versions beyond a gap at %d", i, len(byShard[i]), base[i]+uint64(len(states)))
		}
		o.states = append(o.states, states)
		sz := make([]int, len(states))
		for j := range sz {
			sz[j] = -1
		}
		o.sizes = append(o.sizes, sz)
	}
	return o
}

func applyGroup(st *seqtreap.Node, k kind, keys []int) *seqtreap.Node {
	opd := seqtreap.FromKeys(keys)
	switch k {
	case opUnion:
		return seqtreap.Union(st, opd)
	case opDiff:
		return seqtreap.Diff(st, opd)
	default:
		return seqtreap.Intersect(st, opd)
	}
}

func (o *oracle) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// at returns shard i's state at version v.
func (o *oracle) at(i int, v uint64) (*seqtreap.Node, bool) {
	if v < o.base[i] || v-o.base[i] >= uint64(len(o.states[i])) {
		return nil, false
	}
	return o.states[i][v-o.base[i]], true
}

func (o *oracle) sizeAt(i int, v uint64) (int, bool) {
	st, ok := o.at(i, v)
	if !ok {
		return 0, false
	}
	j := v - o.base[i]
	if o.sizes[i][j] < 0 {
		o.sizes[i][j] = seqtreap.Size(st)
	}
	return o.sizes[i][j], true
}

// setAt joins the shard states at cut into the whole set (shard ranges
// ascend, so the join is ordered).
func (o *oracle) setAt(cut serve.Cut) (*seqtreap.Node, bool) {
	var all *seqtreap.Node
	for i, v := range cut {
		st, ok := o.at(i, v)
		if !ok {
			return nil, false
		}
		all = seqtreap.Join(all, st)
	}
	return all, len(cut) == shards
}

// evalDAG evaluates a drawn DAG over set.
func evalDAG(set *seqtreap.Node, r *request) *seqtreap.Node {
	lit := func(i int) *seqtreap.Node { return seqtreap.FromKeys(r.lits[i]) }
	switch r.shape {
	case 0:
		return seqtreap.Diff(seqtreap.Union(set, lit(0)), lit(1))
	case 1:
		return seqtreap.Union(seqtreap.Union(seqtreap.Union(set, lit(0)), lit(1)), lit(2))
	default:
		return seqtreap.Intersect(set, lit(0))
	}
}

// check compares every successful read against the oracle and marks the
// wrong ones; it returns how many were wrong.
func (o *oracle) check(results []*result) int {
	wrong := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		want, ok := 0, true
		switch r.req.kind {
		case opContains:
			var st *seqtreap.Node
			if st, ok = o.at(r.shard, r.ver); ok && seqtreap.Contains(st, r.req.key) {
				want = 1
			}
		case opLen:
			for i, v := range r.cut {
				n, good := o.sizeAt(i, v)
				want += n
				ok = ok && good
			}
		case opDAG:
			var set *seqtreap.Node
			if set, ok = o.setAt(r.cut); ok {
				want = seqtreap.Size(evalDAG(set, r.req))
			}
		default:
			continue
		}
		if !ok || r.got != want {
			r.wrong = true
			wrong++
			if wrong <= 5 {
				o.fail("%s request %d at %v/%d answered %d, oracle %d (version known: %v)",
					r.req.kind, r.req.id, r.cut, r.ver, r.got, want, ok)
			}
		}
	}
	if wrong > 5 {
		o.fail("... and %d more wrong answers", wrong-5)
	}
	return wrong
}

// checkFinal compares the server's final contents, read at cut, with
// the oracle; the cut must cover every acknowledged version.
func (o *oracle) checkFinal(keys []int, cut serve.Cut) {
	for i, v := range cut {
		if last := o.base[i] + uint64(len(o.states[i])) - 1; v != last {
			o.fail("final cut shard %d at version %d, last acknowledged %d", i, v, last)
		}
	}
	set, ok := o.setAt(cut)
	if !ok {
		return
	}
	if want := seqtreap.Keys(set); !slices.Equal(keys, want) {
		o.fail("final contents: server has %d keys, oracle %d", len(keys), len(want))
	}
}

// final returns the oracle's last state per shard.
func (o *oracle) final() []*seqtreap.Node {
	out := make([]*seqtreap.Node, shards)
	for i := range out {
		out[i] = o.states[i][len(o.states[i])-1]
	}
	return out
}
