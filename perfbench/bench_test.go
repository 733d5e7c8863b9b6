package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"pipefut/internal/serve"
)

// tiny runs one workload for a fraction of a second, with p99s allowed
// from 10 samples so every metric exists at this size.
func tiny(t *testing.T, sp spec, trace bool) *report {
	t.Helper()
	rep, err := run(options{
		sp: sp, seed: 3, window: 300 * time.Millisecond, warm: 50 * time.Millisecond, trace: trace,
		out: t.TempDir(), setups: 1, minTail: 10, step: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("run not correct: %v", rep.notes)
	}
	return rep
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			} else if sp.rate > 0 {
				want = append(slices.Clone(want), named{"capacity_rps", "req/s"})
			}
			rep := tiny(t, sp, trace)
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", sp.name, trace, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", sp.name, trace, m.name, got, m.unit)
				}
			}
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program in step:
// the same workloads with the same reasons, the same metrics and units.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, sp := range specs {
		if sp.ungated == "" {
			gated = append(gated, sp)
		}
	}
	if len(f.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program gates %d", len(f.Workloads), len(gated))
	}
	for i, w := range f.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: file %q %q, program %q %q", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []named
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("file lists %d metrics, program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: file %s %s, program %s %s", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestOracleCatchesWrongAnswers drives a real server, then corrupts one
// recorded answer and the final contents: the check must flag both.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	sp, _ := specByName("mixed")
	s := serve.New(serve.Config{Shards: shards, Universe: sp.universe})
	rc, err := newRecorder(1000)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.free()
	g := newGen(sp, 1, 0)
	for range 400 {
		slot := rc.slot()
		slot.base = rc.at(time.Now())
		rc.do(s, g.next(), slot, nil)
	}
	keys, cut, err := s.Keys()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rc.expand(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *oracle {
		return newOracle(pivotsFor(sp.universe), make([][]int, shards), make([]uint64, shards), rs)
	}
	o := fresh()
	if n := o.check(rs); n != 0 || len(o.errs) != 0 {
		t.Fatalf("clean run: %d wrong, %v", n, o.errs)
	}
	o.checkFinal(keys, cut)
	if len(o.errs) != 0 {
		t.Fatalf("clean final state flagged: %v", o.errs)
	}

	for _, k := range []kind{opContains, opLen} {
		for _, r := range rs {
			if r.req.kind == k {
				r.got ^= 1
				o := fresh()
				if n := o.check(rs); n != 1 || !r.wrong {
					t.Errorf("corrupted %s answer: %d wrong, marked %v", k, n, r.wrong)
				}
				r.got ^= 1
				r.wrong = false
				break
			}
		}
	}
	o = fresh()
	o.checkFinal(append(keys[:len(keys):len(keys)], sp.universe), cut)
	if len(o.errs) == 0 {
		t.Error("corrupted final contents passed the check")
	}
}
