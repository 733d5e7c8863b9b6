// The full analysis workflow of the paper, end to end on one algorithm:
//
//  1. run the pipelined treap union in the cost model, measuring work and
//     depth in the DAG model of Section 2 (and auditing linearity, §4);
//
//  2. record the computation DAG and cross-check the depth against an
//     independent critical-path computation;
//
//  3. execute the greedy stack schedule of Lemma 4.1 on p virtual
//     processors and verify steps ≤ ⌈w/p⌉ + d;
//
//  4. run the same algorithm for real on goroutines and validate the
//     result against the sequential oracle.
//
//     go run ./examples/analysis -n 4096
package main

import (
	"flag"
	"fmt"
	"os"

	"pipefut/internal/core"
	"pipefut/internal/costalg"
	"pipefut/internal/machine"
	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/trace"
	"pipefut/internal/workload"
)

func main() {
	n := flag.Int("n", 4096, "treap sizes")
	flag.Parse()

	rng := workload.NewRNG(7)
	ka, kb := workload.OverlappingKeySets(rng, *n, *n, 0.25)
	ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)

	// 1+2: measure in the cost model, recording the DAG.
	tr := trace.New()
	eng := core.NewEngine(tr)
	r := costalg.Union(eng.NewCtx(), costalg.FromSeqTreap(eng, ta), costalg.FromSeqTreap(eng, tb))
	completion := costalg.CompletionTime(r)
	costs := eng.Finish()

	fmt.Printf("== 1. cost model (Section 2) ==\n")
	fmt.Printf("union of two %d-key treaps: work=%d depth=%d parallelism=%.0f\n",
		*n, costs.Work, costs.Depth, costs.AvgParallelism())
	fmt.Printf("result fully materialized at t=%d; linear (EREW-safe): %v\n", completion, costs.Linear())

	fmt.Printf("\n== 2. recorded DAG cross-check ==\n")
	s := tr.Summary()
	fmt.Printf("trace: %v\n", s)
	if s.Depth != costs.Depth {
		fmt.Fprintln(os.Stderr, "DEPTH MISMATCH — engine and trace disagree")
		os.Exit(1)
	}
	fmt.Printf("critical path over the recorded DAG == engine depth ✓\n")

	fmt.Printf("\n== 3. Lemma 4.1 greedy schedule ==\n")
	fmt.Printf("%8s %10s %10s %10s %8s\n", "p", "steps", "⌈w/p⌉+d", "speedup", "util")
	for p := 1; p <= 4096; p *= 8 {
		res, err := machine.Run(tr, p, machine.Stack)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ok := " "
		if !res.GreedyOK() {
			ok = " BOUND VIOLATED"
		}
		fmt.Printf("%8d %10d %10d %10.1f %8.3f%s\n",
			p, res.Steps, res.BrentBound, res.Speedup(), res.Utilization(), ok)
	}

	fmt.Printf("\n== 4. real execution on goroutines ==\n")
	rt := paralg.GoRuntime{}
	cfg := paralg.RConfig{R: rt, SpawnDepth: paralg.DefaultSpawnDepth}
	got := paralg.RToSeqTreap(cfg.Union(nil, paralg.RFromSeqTreap(rt, ta), paralg.RFromSeqTreap(rt, tb)))
	want := seqtreap.Union(ta, tb)
	if !seqtreap.Equal(got, want) {
		fmt.Fprintln(os.Stderr, "parallel result differs from oracle")
		os.Exit(1)
	}
	fmt.Printf("goroutine union == sequential oracle (structurally identical treaps, %d keys) ✓\n",
		seqtreap.Size(got))
}
