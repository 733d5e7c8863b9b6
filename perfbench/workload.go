package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

// kind is one request type of a mix.
type kind uint8

const (
	opUnion kind = iota
	opDiff
	opIntersect
	opContains
	opLen
	opDAG
)

var kindNames = [...]string{"union", "difference", "intersect", "contains", "len", "evaldag"}

func (k kind) String() string { return kindNames[k] }

// write reports whether k is a mutation (the write class); every other
// kind is a read.
func (k kind) write() bool { return k <= opIntersect }

func (k kind) op() serve.Op {
	return [...]serve.Op{serve.OpUnion, serve.OpDifference, serve.OpIntersect}[k]
}

// spec is one workload: the server it builds and the traffic it sends.
type spec struct {
	name      string
	why       string
	backend   string
	universe  int
	preload   int // keys unioned in during set-up
	recovered int // keys recovered from a prepared data dir at set-up (durable)
	durable   bool
	rate      float64 // open-loop nominal arrivals per second; 0 = closed loop
	callers   int     // closed-loop callers
	batch     int     // keys per union / difference (and per DAG literal)
	deck      []kind  // one block of the mix in exact proportions, shuffled per block
	// ungated, when set, says why the workload runs on request but is
	// left out of BENCHMARK.json.
	ungated string
}

const shards = 4

// times is a deck fragment of n requests of kind k.
func times(k kind, n int) []kind { return slices.Repeat([]kind{k}, n) }

// The X-SERVE mix: 40% union / 25% difference / 5% intersect / 25%
// contains / 5% len.
var serveMix = slices.Concat(times(opUnion, 8), times(opDiff, 5), times(opIntersect, 1), times(opContains, 5), times(opLen, 1))

var specs = []spec{
	{
		name:    "mixed",
		why:     "Most of the work is in sched and paralg; persist is bypassed. This is where allocation and cell-count work on the pipelined path must show.",
		backend: "treap", universe: 1 << 12, preload: 1024, callers: 2, batch: 32, deck: serveMix,
	},
	{
		name:    "mixed-t26",
		why:     "The batch-synchronous control: the only workload on paralg's 2-6-tree path and LinearCell; a pipelined-path optimization should leave it flat.",
		backend: "t26", universe: 1 << 12, preload: 1024, callers: 2, batch: 32, deck: serveMix,
	},
	{
		name:    "durable",
		why:     "Writes wait for group commit (fsync=batch; latency is the host disk's as run, not a device's), so persist and the ack path dominate write latency; working set 16x mixed.",
		backend: "treap", universe: 1 << 16, recovered: 1 << 14, durable: true, callers: 2, batch: 32,
		deck: slices.Concat(times(opUnion, 2), times(opDiff, 1), times(opContains, 1)),
	},
	{
		name:    "dag-open",
		why:     "Open-loop Poisson arrivals of fused operation DAGs over in-flight pipelines: serve's cut and marker path and tail latency; the only workload with a capacity ladder.",
		backend: "treap", universe: 1 << 12, preload: 1024, rate: 250, batch: 16,
		deck: slices.Concat(times(opDAG, 6), times(opUnion, 1), times(opDiff, 1), times(opContains, 2)),
		ungated: "on a 2-vCPU VM with bursty CPU steal, identical runs spread 0.3 (p50) to 0.5 (p99) " +
			"in interquartile range over median, beyond the largest bound a gated metric may have",
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// request is one fully drawn request. keys is a mutation's operand;
// lits are a DAG's literal leaves, combined with the stored set by shape.
type request struct {
	id    int64
	kind  kind
	key   int
	keys  []int
	shape int
	lits  [][]int
}

// gen draws requests from one seeded stream. It is not goroutine-safe:
// each closed-loop caller owns one, and the open-loop schedule is drawn
// by a single goroutine before the clock starts.
type gen struct {
	sp    spec
	rng   *workload.RNG
	gaps  *workload.RNG // open-loop inter-arrival gaps, apart from the requests
	deck  []kind
	pos   int
	dags  int
	idTag int64
	n     int64
}

func newGen(sp spec, seed uint64, stream int) *gen {
	return &gen{
		sp:    sp,
		rng:   workload.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(stream) + 1),
		gaps:  workload.NewRNG(seed*0xbf58476d1ce4e5b9 + uint64(stream) + 1),
		deck:  append([]kind(nil), sp.deck...),
		idTag: int64(stream) << streamShift,
	}
}

func (g *gen) randKeys(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = g.rng.Intn(g.sp.universe)
	}
	return ks
}

func (g *gen) next() *request {
	if g.pos%len(g.deck) == 0 {
		for i := len(g.deck) - 1; i > 0; i-- {
			j := g.rng.Intn(i + 1)
			g.deck[i], g.deck[j] = g.deck[j], g.deck[i]
		}
	}
	k := g.deck[g.pos%len(g.deck)]
	g.pos++
	return g.draw(k)
}

// draw draws one request of kind k.
func (g *gen) draw(k kind) *request {
	g.n++
	r := &request{id: g.idTag | g.n, kind: k}
	switch k {
	case opUnion, opDiff:
		r.keys = g.randKeys(g.sp.batch)
	case opIntersect:
		r.keys = g.randKeys(g.sp.universe / 2)
	case opContains:
		r.key = g.rng.Intn(g.sp.universe)
	case opDAG:
		// Rotate the three X-OPENLOOP shapes.
		r.shape = g.dags % 3
		g.dags++
		switch r.shape {
		case 0: // (set ∪ B) \ C
			r.lits = [][]int{g.randKeys(g.sp.batch), g.randKeys(g.sp.batch)}
		case 1: // set ∪ B1 ∪ B2 ∪ B3
			r.lits = [][]int{g.randKeys(g.sp.batch), g.randKeys(g.sp.batch), g.randKeys(g.sp.batch)}
		default: // filter-then-count: set ∩ F
			r.lits = [][]int{g.randKeys(g.sp.universe / 8)}
		}
	}
	return r
}

// dagRequest lowers a drawn DAG onto the server's wire shape.
func dagRequest(r *request) serve.DAGRequest {
	set := serve.DAGNode{Ref: serve.SetRef}
	switch r.shape {
	case 0:
		return serve.DAGRequest{Nodes: []serve.DAGNode{
			set, {Keys: r.lits[0]}, {Op: "union", Args: []int{0, 1}},
			{Keys: r.lits[1]}, {Op: "difference", Args: []int{2, 3}},
		}}
	case 1:
		return serve.DAGRequest{Nodes: []serve.DAGNode{
			set, {Keys: r.lits[0]}, {Keys: r.lits[1]}, {Keys: r.lits[2]},
			{Op: "union", Args: []int{0, 1, 2, 3}},
		}}
	default:
		return serve.DAGRequest{Nodes: []serve.DAGNode{
			set, {Keys: r.lits[0]}, {Op: "intersect", Args: []int{0, 1}},
		}}
	}
}

// phase tags when a request was sent.
type phase uint8

const (
	phWarm   phase = iota // before the window: checked, not measured
	phWindow              // the measured window
	phLadder              // dag-open capacity ladder steps
	phProbe               // traced probes after the window
)

// result is one request's outcome with its regenerated inputs, as the
// checks and metrics after a run see it. lat is timed from base (the due
// instant in an open loop, the send instant in a closed loop) and is inf
// for a failure.
type result struct {
	req    *request
	phase  phase
	traced bool
	base   time.Time
	send   time.Time
	done   time.Time
	lat    time.Duration
	lag    time.Duration // send lateness: open loop vs due, closed loop vs previous reply
	err    error
	wrong  bool
	cut    serve.Cut // mutation: versions produced; Len/DAG: cut observed
	ver    uint64    // Contains: version observed
	shard  int
	got    int // Contains: 0/1; Len, DAG: count
}

func (r *result) failed() bool { return r.err != nil || r.wrong }

// sortedDistinct returns a sorted deduplicated copy of keys.
func sortedDistinct(keys []int) []int {
	cp := append([]int(nil), keys...)
	sort.Ints(cp)
	out := cp[:0]
	for i, k := range cp {
		if i == 0 || k != cp[i-1] {
			out = append(out, k)
		}
	}
	return out
}
