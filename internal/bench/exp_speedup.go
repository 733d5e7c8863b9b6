package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "speedup",
		Paper: "Section 1 (implementation analysis)",
		Claim: "future-based code runs asynchronously on a real multiprocessor; wall-clock speedup grows with processors",
		Run:   runSpeedup,
	})
	Register(Experiment{
		ID:    "grain",
		Paper: "ablation",
		Claim: "grain-size cutoff: too little spawning loses parallelism, too much drowns in goroutine overhead",
		Run:   runGrain,
	})
}

// timeIt runs f repeatedly until at least 50ms elapse and returns the mean
// duration.
func timeIt(f func()) time.Duration {
	// Warm up once.
	f()
	var total time.Duration
	n := 0
	for total < 50*time.Millisecond {
		start := time.Now()
		f()
		total += time.Since(start)
		n++
	}
	return total / time.Duration(n)
}

// speedupInputs builds the shared inputs for the wall-clock experiments.
func speedupInputs(seed uint64, n int) (t1, t2 *seqtree.Node, ta, tb *seqtreap.Node) {
	rng := workload.NewRNG(seed)
	ka, kb := workload.DisjointKeySets(rng, n, n)
	sort.Ints(ka)
	sort.Ints(kb)
	t1 = seqtree.FromSortedBalanced(ka)
	t2 = seqtree.FromSortedBalanced(kb)
	ua, ub := workload.OverlappingKeySets(rng, n, n, 0.25)
	ta = seqtreap.FromKeys(ua)
	tb = seqtreap.FromKeys(ub)
	return
}

func runSpeedup(cfg Config, w io.Writer) error {
	n := 1 << min(cfg.MaxLgN, 19)
	t1, t2, ta, tbp := speedupInputs(cfg.Seed, n)
	rt := paralg.GoRuntime{}
	a1, a2 := paralg.RFromSeqTree(rt, t1), paralg.RFromSeqTree(rt, t2)
	b1, b2 := paralg.RFromSeqTreap(rt, ta), paralg.RFromSeqTreap(rt, tbp)

	seqMerge := timeIt(func() { seqtree.Merge(t1, t2) })
	seqUnion := timeIt(func() { seqtreap.Union(ta, tbp) })

	maxP := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(maxP)

	tb := NewTable(fmt.Sprintf("Wall-clock speedup, n = m = 2^%d (sequential: merge %v, union %v)", lgInt(n), seqMerge, seqUnion),
		"GOMAXPROCS", "merge time", "merge speedup", "union time", "union speedup")
	cfgPar := paralg.RConfig{R: rt, SpawnDepth: paralg.DefaultSpawnDepth}
	for p := 1; p <= maxP; p *= 2 {
		runtime.GOMAXPROCS(p)
		tm := timeIt(func() { paralg.RWait(cfgPar.Merge(nil, a1, a2)) })
		tu := timeIt(func() { paralg.RWait(cfgPar.Union(nil, b1, b2)) })
		tb.Row(I(int64(p)),
			tm.String(), F(float64(seqMerge)/float64(tm)),
			tu.String(), F(float64(seqUnion)/float64(tu)))
		if p != maxP && p*2 > maxP {
			p = maxP / 2 // make sure maxP itself runs
		}
	}
	runtime.GOMAXPROCS(maxP)
	tb.Note("speedup is measured against the sequential (future-free) implementation, not the p=1 parallel run")
	tb.Note("host has %d CPUs; absolute times are machine-specific, the shape (rising speedup) is the result", maxP)
	return tb.Fprint(w)
}

func runGrain(cfg Config, w io.Writer) error {
	n := 1 << min(cfg.MaxLgN, 19)
	t1, t2, ta, tbp := speedupInputs(cfg.Seed+1, n)
	rt := paralg.GoRuntime{}
	a1, a2 := paralg.RFromSeqTree(rt, t1), paralg.RFromSeqTree(rt, t2)
	b1, b2 := paralg.RFromSeqTreap(rt, ta), paralg.RFromSeqTreap(rt, tbp)
	seqMerge := timeIt(func() { seqtree.Merge(t1, t2) })
	seqUnion := timeIt(func() { seqtreap.Union(ta, tbp) })

	tb := NewTable(fmt.Sprintf("Grain-size ablation, n = m = 2^%d, GOMAXPROCS = %d", lgInt(n), runtime.GOMAXPROCS(0)),
		"spawn depth", "merge time", "merge speedup", "union time", "union speedup")
	for _, d := range []int{0, 2, 4, 8, 12, 16, 20} {
		c := paralg.RConfig{R: rt, SpawnDepth: d}
		tm := timeIt(func() { paralg.RWait(c.Merge(nil, a1, a2)) })
		tu := timeIt(func() { paralg.RWait(c.Union(nil, b1, b2)) })
		tb.Row(I(int64(d)),
			tm.String(), F(float64(seqMerge)/float64(tm)),
			tu.String(), F(float64(seqUnion)/float64(tu)))
	}
	tb.Note("spawn depth 0 = sequential execution of the cell-based code (its overhead vs the plain sequential code is the cost of futures)")
	return tb.Fprint(w)
}
