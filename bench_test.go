// Benchmarks, one per experiment of DESIGN.md. The cost-model benchmarks
// report the paper's metrics (depth and work in the DAG model) through
// b.ReportMetric alongside wall-clock time; the paralg benchmarks measure
// real future-based execution against the sequential baselines.
//
//	go test -bench=. -benchmem
package pipefut

import (
	"sort"
	"testing"

	"pipefut/internal/bench"
	"pipefut/internal/clomachine"
	"pipefut/internal/core"
	"pipefut/internal/costalg"
	"pipefut/internal/machine"
	"pipefut/internal/ml"
	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

const benchN = 1 << 12 // cost-model input size for the depth benchmarks

func reportCosts(b *testing.B, pipe, nopipe core.Costs) {
	b.ReportMetric(float64(pipe.Depth), "depth(pipe)")
	b.ReportMetric(float64(nopipe.Depth), "depth(nopipe)")
	b.ReportMetric(float64(pipe.Work), "work(pipe)")
}

// BenchmarkMergeDepth — E-T3.1 (Theorem 3.1): pipelined vs non-pipelined
// tree merge in the cost model.
func BenchmarkMergeDepth(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np = bench.MergeCosts(42, benchN, benchN)
	}
	reportCosts(b, p, np)
}

// BenchmarkUnionDepth — E-C3.6 (Corollary 3.6 / Theorem 3.7).
func BenchmarkUnionDepth(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np = bench.UnionCosts(42, benchN, benchN, 0.25)
	}
	reportCosts(b, p, np)
}

// BenchmarkDiffDepth — E-C3.12 (Corollary 3.12).
func BenchmarkDiffDepth(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np = bench.DiffCosts(42, benchN, benchN, 0.5)
	}
	reportCosts(b, p, np)
}

// BenchmarkT26InsertDepth — E-T3.13 (Theorem 3.13).
func BenchmarkT26InsertDepth(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np = bench.T26Costs(42, benchN, benchN)
	}
	reportCosts(b, p, np)
}

// BenchmarkFig1ProducerConsumer — E-FIG1 (Figure 1).
func BenchmarkFig1ProducerConsumer(b *testing.B) {
	var p, ph core.Costs
	for i := 0; i < b.N; i++ {
		p, ph, _ = bench.Fig1Costs(benchN)
	}
	b.ReportMetric(float64(p.Depth), "depth(pipe)")
	b.ReportMetric(float64(ph.Depth), "depth(phased)")
}

// BenchmarkFig2Quicksort — E-FIG2 (Figure 2): both variants Θ(n) depth.
func BenchmarkFig2Quicksort(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np = bench.Fig2Costs(42, benchN)
	}
	reportCosts(b, p, np)
}

// BenchmarkMergesortDepth — E-MS (Section 5 conjecture).
func BenchmarkMergesortDepth(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np, _ = bench.MergesortCosts(42, benchN)
	}
	reportCosts(b, p, np)
}

// BenchmarkRebalance — E-REBAL (Section 3.1 end).
func BenchmarkRebalance(b *testing.B) {
	rng := workload.NewRNG(42)
	ka, kb := workload.DisjointKeySets(rng, benchN, benchN)
	sort.Ints(ka)
	sort.Ints(kb)
	merged := seqtree.Merge(seqtree.FromSortedBalanced(ka), seqtree.FromSortedBalanced(kb))
	size := seqtree.Size(merged)
	var costs core.Costs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(nil)
		ctx := eng.NewCtx()
		ann := costalg.Annotate(ctx, costalg.FromSeqTree(eng, merged))
		costalg.CompletionTime(costalg.Rebalance(ctx, ann, size))
		costs = eng.Finish()
	}
	b.ReportMetric(float64(costs.Depth), "depth")
	b.ReportMetric(float64(costs.Work), "work")
}

// BenchmarkMachineSchedule — E-L4.1 (Lemma 4.1): greedy schedule of a real
// trace on 64 virtual processors.
func BenchmarkMachineSchedule(b *testing.B) {
	traces := bench.TracedAlgorithms(42, 1<<10)
	tr := traces["union"]
	var r machine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = machine.Run(tr, 64, machine.Stack)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Steps), "steps")
	b.ReportMetric(r.Utilization(), "util")
	if !r.GreedyOK() {
		b.Fatal("Brent bound violated")
	}
}

// --- real-execution benchmarks (E-SPEED / A-GRAIN) ------------------------

// goCfg runs the real-execution benchmarks on goroutines.
func goCfg(spawnDepth int) paralg.RConfig {
	return paralg.RConfig{R: paralg.GoRuntime{}, SpawnDepth: spawnDepth}
}

func parInputs(n int) (t1, t2 paralg.NodeCell, u1, u2 paralg.NodeCell, sa, sb *seqtree.Node, ta, tb *seqtreap.Node) {
	rng := workload.NewRNG(42)
	ka, kb := workload.DisjointKeySets(rng, n, n)
	sort.Ints(ka)
	sort.Ints(kb)
	sa, sb = seqtree.FromSortedBalanced(ka), seqtree.FromSortedBalanced(kb)
	ua, ub := workload.OverlappingKeySets(rng, n, n, 0.25)
	ta, tb = seqtreap.FromKeys(ua), seqtreap.FromKeys(ub)
	rt := paralg.GoRuntime{}
	return paralg.RFromSeqTree(rt, sa), paralg.RFromSeqTree(rt, sb),
		paralg.RFromSeqTreap(rt, ta), paralg.RFromSeqTreap(rt, tb), sa, sb, ta, tb
}

// BenchmarkParMerge — real future-based merge on goroutines.
func BenchmarkParMerge(b *testing.B) {
	t1, t2, _, _, _, _, _, _ := parInputs(1 << 15)
	cfg := goCfg(paralg.DefaultSpawnDepth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paralg.RWait(cfg.Merge(nil, t1, t2))
	}
}

// BenchmarkSeqMerge — the sequential baseline for BenchmarkParMerge.
func BenchmarkSeqMerge(b *testing.B) {
	_, _, _, _, sa, sb, _, _ := parInputs(1 << 15)
	for i := 0; i < b.N; i++ {
		seqtree.Merge(sa, sb)
	}
}

// BenchmarkParUnion — real future-based treap union on goroutines.
func BenchmarkParUnion(b *testing.B) {
	_, _, u1, u2, _, _, _, _ := parInputs(1 << 15)
	cfg := goCfg(paralg.DefaultSpawnDepth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paralg.RWait(cfg.Union(nil, u1, u2))
	}
}

// BenchmarkSeqUnion — the sequential baseline for BenchmarkParUnion.
func BenchmarkSeqUnion(b *testing.B) {
	_, _, _, _, _, _, ta, tb := parInputs(1 << 15)
	for i := 0; i < b.N; i++ {
		seqtreap.Union(ta, tb)
	}
}

// BenchmarkParMergeGrain — A-GRAIN: one point of the grain ablation per
// sub-benchmark.
func BenchmarkParMergeGrain(b *testing.B) {
	t1, t2, _, _, _, _, _, _ := parInputs(1 << 15)
	for _, d := range []int{0, 8, 16} {
		cfg := goCfg(d)
		b.Run(map[int]string{0: "seq", 8: "d8", 16: "d16"}[d], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				paralg.RWait(cfg.Merge(nil, t1, t2))
			}
		})
	}
}

// BenchmarkSetUnion — the public API end to end.
func BenchmarkSetUnion(b *testing.B) {
	rng := workload.NewRNG(42)
	ka := workload.DistinctKeys(rng, 1<<14, 1<<20)
	kb := workload.DistinctKeys(rng, 1<<14, 1<<20)
	sa, sb := NewSet(ka...), NewSet(kb...)
	sa.Wait()
	sb.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := sa.Union(sb)
		u.Wait()
	}
}

// BenchmarkIntersectDepth — X-INTER extension experiment.
func BenchmarkIntersectDepth(b *testing.B) {
	var p, np core.Costs
	for i := 0; i < b.N; i++ {
		p, np = bench.IntersectCosts(42, benchN, benchN, 0.5)
	}
	reportCosts(b, p, np)
}

// BenchmarkParT26BulkInsert — real 2-6 tree bulk insertion on goroutines.
func BenchmarkParT26BulkInsert(b *testing.B) {
	rng := workload.NewRNG(42)
	all := workload.DistinctKeys(rng, 1<<15, 1<<20)
	base := t26.FromKeys(all[:1<<14])
	ins := append([]int(nil), all[1<<14:]...)
	sort.Ints(ins)
	levels := workload.WellSeparatedLevels(ins)
	cfg := goCfg(paralg.DefaultSpawnDepth)
	root := paralg.RFromSeqT26(cfg.R, base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paralg.RWaitT26(cfg.T26BulkInsert(nil, root, levels))
	}
}

// BenchmarkSeqT26BulkInsert — the sequential baseline.
func BenchmarkSeqT26BulkInsert(b *testing.B) {
	rng := workload.NewRNG(42)
	all := workload.DistinctKeys(rng, 1<<15, 1<<20)
	base := t26.FromKeys(all[:1<<14])
	ins := all[1<<14:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t26.BulkInsert(base, ins)
	}
}

// BenchmarkParQuicksort — Figure 2 on real goroutines.
func BenchmarkParQuicksort(b *testing.B) {
	rng := workload.NewRNG(42)
	xs := rng.Perm(1 << 13)
	cfg := goCfg(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := paralg.RFromSlice(cfg.R, xs)
		_ = paralg.RToSlice(cfg.Quicksort(nil, l, paralg.RFromSlice(cfg.R, nil)))
	}
}

// BenchmarkOnlineMachine — X-ONLINE: the closure machine running the
// pipelined merge program on 64 virtual processors.
func BenchmarkOnlineMachine(b *testing.B) {
	rng := workload.NewRNG(42)
	ka, kb := workload.DisjointKeySets(rng, 1<<11, 1<<11)
	sort.Ints(ka)
	sort.Ints(kb)
	var r clomachine.Result
	for i := 0; i < b.N; i++ {
		prog, _ := clomachine.Merge(clomachine.TreeFromKeys(ka), clomachine.TreeFromKeys(kb))
		r = clomachine.Run(prog, 64)
		if !r.OK() {
			b.Fatal("bound violated")
		}
	}
	b.ReportMetric(float64(r.Steps), "steps")
	b.ReportMetric(float64(r.Suspensions), "suspensions")
}

// BenchmarkMLMerge — X-ML: the paper's Figure 3 source interpreted under
// the cost semantics.
func BenchmarkMLMerge(b *testing.B) {
	prog := ml.ParsePaper()
	rng := workload.NewRNG(42)
	ka, kb := workload.DisjointKeySets(rng, 1<<10, 1<<10)
	sort.Ints(ka)
	sort.Ints(kb)
	t1 := seqtree.FromSortedBalanced(ka)
	t2 := seqtree.FromSortedBalanced(kb)
	var costs core.Costs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(nil)
		in := ml.NewInterp(prog, eng)
		v, err := in.Apply(eng.NewCtx(), "merge", ml.TreeValue(t1), ml.TreeValue(t2))
		if err != nil {
			b.Fatal(err)
		}
		ml.Deep(v)
		costs = eng.Finish()
	}
	b.ReportMetric(float64(costs.Depth), "depth")
	b.ReportMetric(float64(costs.Work), "work")
}

// BenchmarkFutureCell — the raw future primitive: spawn + read.
func BenchmarkFutureCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := Spawn(func() int { return i })
		_ = c.Read()
	}
}
