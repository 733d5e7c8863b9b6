// Command perfbench is the repository's benchmark: it drives the
// pipelined set server (internal/serve) in process through its public
// methods, checks every answer against a sequential oracle, and prints
// end-to-end metrics (untraced runs) or per-layer metrics for sched,
// gc, paralg, serve, persist and the load generator (traced runs).
//
//	bash perfbench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Lines before it, prefixed "# ", carry the host stamp, every
// percentile's sample count, the capacity ladder and span tallies.
//
// BENCHMARK.json gates the closed-loop workloads mixed, mixed-t26 and
// durable. The open-loop workload dag-open (Poisson arrivals at 250/s,
// then a capacity ladder) runs on request but is not gated; its spec's
// ungated field says why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pipefut/internal/serve"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type named struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []named{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
	{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload.
var perLayer = []named{
	{"sched.cells_per_req", "count"}, {"sched.spawns_per_req", "count"},
	{"sched.suspensions_per_req", "count"}, {"sched.steals_per_req", "count"},
	{"sched.deviations_per_ktask", "count"}, {"sched.mailbox_hits_per_req", "count"},
	{"sched.busy_frac", "ratio"}, {"sched.max_deque", "tasks"},
	{"gc.allocs_per_req", "count"}, {"gc.alloc_bytes_per_req", "B"},
	{"gc.cpu_frac", "ratio"}, {"gc.pause_p99_us", "us"},
	{"paralg.union_root_us", "us"}, {"paralg.diff_root_us", "us"}, {"paralg.intersect_root_us", "us"},
	{"paralg.union_done_us", "us"}, {"paralg.diff_done_us", "us"}, {"paralg.intersect_done_us", "us"},
	{"paralg.split_done_us", "us"}, {"paralg.build_done_us", "us"},
	{"paralg.t26_insert_us", "us"}, {"paralg.dag_done_us", "us"},
	{"paralg.cells_per_op", "count"}, {"paralg.allocs_per_op", "count"},
	{"serve.pieces_per_batch", "count"}, {"serve.shed_frac", "ratio"}, {"serve.dag_nodes_per_req", "count"},
	{"serve.apply_p50_us", "us"}, {"serve.contains_p50_us", "us"},
	{"serve.len_p50_us", "us"}, {"serve.evaldag_p50_us", "us"}, {"serve.overhead_us", "us"},
	{"persist.records_per_fsync", "count"}, {"persist.bytes_per_key", "B"},
	{"persist.encode_us", "us"}, {"persist.durable_wait_us", "us"}, {"persist.snapshot_lag", "versions"},
	{"loadgen.send_lag_p99_us", "us"},
	{"failed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// options is one run's configuration.
type options struct {
	sp      spec
	seed    uint64
	window  time.Duration
	warm    time.Duration
	trace   bool
	out     string        // writable directory for scratch data and span dumps
	setups  int           // set-ups timed; setup_s is their median
	minTail int           // samples a class needs before its p99 is reported
	step    time.Duration // capacity ladder step length
}

// report is one run's result; the exported fields are the final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "mixed", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch data and span dumps")
	flag.Parse()

	sp, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	window := time.Duration(*seconds) * time.Second
	o := options{
		sp: sp, seed: *seed, window: window, warm: time.Second, trace: *trace == 1,
		out: *out, setups: 11, minTail: 1000, step: max(window/20, 250*time.Millisecond),
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run: set-up, the window (plus the capacity
// ladder or the traced probes and replay), the oracle check, and the
// metrics of the requested kind.
func run(o options) (*report, error) {
	sp := o.sp
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	p := runtime.GOMAXPROCS(0)
	rep.note("env workload=%s seed=%d nproc=%d GOMAXPROCS=%d P=%d shards=%d backend=%s go=%s trace=%v",
		sp.name, o.seed, runtime.NumCPU(), p, p, shards, sp.backend, runtime.Version(), o.trace)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "run-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up: open (recovering, for durable), preload, and answer the
	// first Len, which forces the preload to materialize. Timed several
	// times; the last server is kept.
	cfg := serve.Config{P: p, Shards: shards, Backend: sp.backend, Universe: sp.universe, StealPolicy: serve.StealAffine}
	pivots := pivotsFor(sp.universe)
	initial, base := make([][]int, shards), make([]uint64, shards)
	prep := filepath.Join(scratch, "prep")
	if sp.durable {
		cfg.Fsync = "batch"
		if initial, base, err = prepareDataDir(prep, sp, o.seed); err != nil {
			return nil, err
		}
		rep.note("durable: fsync=batch; data dir %d keys as snapshot + %d-record WAL suffix per shard; latency is the host disk's as run, not a device's",
			sp.recovered, suffixRecords)
	}
	// Room for 100k requests a second through the longest window, plus
	// the capacity ladder and probes; untouched pages cost nothing.
	rc, err := newRecorder(int(1e5*(o.warm+3*o.window).Seconds()) + 1<<20)
	if err != nil {
		return nil, err
	}
	defer rc.free()
	var s *serve.Server
	var preload rec
	var setups []float64
	for k := range o.setups {
		if s != nil {
			s.Close()
			os.RemoveAll(cfg.DataDir)
		}
		if sp.durable {
			cfg.DataDir = filepath.Join(scratch, fmt.Sprintf("data-%d", k))
			if err := copyDir(cfg.DataDir, prep); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if s, err = serve.Open(cfg); err != nil {
			return nil, err
		}
		want := sp.recovered
		if sp.preload > 0 {
			preload = rec{phase: phWarm, base: rc.at(time.Now())}
			if rc.do(s, preloadRequest(sp, o.seed), &preload, nil); preload.failCode != failNone {
				s.Close()
				return nil, fmt.Errorf("preload failed (code %d)", preload.failCode)
			}
			want = sp.preload
		}
		n, cut, err := s.Len()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil || n != want {
			s.Close()
			return nil, fmt.Errorf("set-up: Len = %d, %v; want %d", n, err, want)
		}
		if sp.durable && !slices.Equal([]uint64(cut), base) {
			s.Close()
			return nil, fmt.Errorf("set-up: recovered versions %v, prepared %v", cut, base)
		}
	}
	for i, pv := range pivots {
		if s.ShardOf(pv) != i+1 || s.ShardOf(pv-1) != i {
			s.Close()
			return nil, fmt.Errorf("server shard pivots differ from %v", pivots)
		}
	}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	if sp.preload > 0 {
		*rc.slot() = preload // the kept server's preload
	}

	// The measured window.
	var tr *tracer
	if o.trace {
		tr = newTracer(rc.epoch)
	}
	plan := windowPlan{warm: o.warm, window: o.window, trace: o.trace, minTail: o.minTail}
	g := newGen(sp, o.seed, streamOpen)
	var m *measured
	if sp.rate > 0 {
		m = openWindow(s, sp, g, plan, rc, tr)
	} else {
		m = closedLoop(s, sp, o.seed, plan, rc, tr)
	}
	var steps []ladderStep
	capacity := 0.0
	if sp.rate > 0 && !o.trace {
		steps, capacity = ladder(s, g, sp.rate, o.step, rc)
	}
	if o.trace {
		probe(s, sp, o.seed, rc, tr)
	}
	finalKeys, finalCut, err := s.Keys()
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("final keys: %w", err)
	}
	totals := s.Metrics()
	s.Close()
	if sp.durable {
		if err := reopenCheck(cfg, finalKeys); err != nil {
			rep.Correct = false
			rep.note("FAIL durable round trip: %v", err)
		} else {
			rep.note("durable round trip: reopened %d keys = final acknowledged state", len(finalKeys))
		}
	}

	// The oracle check, over every request's regenerated inputs.
	all, err := rc.expand(sp, o.seed)
	if err != nil {
		return nil, err
	}
	orc := newOracle(pivots, initial, base, all)
	wrong := orc.check(all)
	orc.checkFinal(finalKeys, finalCut)
	unexpected := 0
	for _, r := range all {
		if r.err != nil && !errors.Is(r.err, serve.ErrOverloaded) && !errors.Is(r.err, serve.ErrDraining) {
			if unexpected++; unexpected <= 3 {
				orc.fail("%s request %d failed: %v", r.req.kind, r.req.id, r.err)
			}
		}
	}
	for _, e := range orc.errs {
		rep.note("FAIL oracle: %s", e)
	}
	if len(orc.errs) > 0 {
		rep.Correct = false
	}
	rep.note("oracle: %d requests checked against internal/seqtreap, %d wrong answers, final state %d keys", len(all), wrong, len(finalKeys))

	var window []*result
	for _, r := range all {
		if r.phase == phWindow {
			window = append(window, r)
			if r.failed() {
				rep.Failed++
			}
		}
	}
	rep.Attempted = len(window)
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("no request in the window")
	}
	if !o.trace {
		endToEndMetrics(rep, o, m, window, steps, capacity)
		return rep, nil
	}
	delete(rep.Metrics, "setup_s")
	if err := perLayerMetrics(rep, o, m, window, orc, tr, totals, scratch); err != nil {
		return nil, err
	}
	return rep, nil
}

// lats collects the latencies of the results keep selects; failures
// (errors and wrong answers) are inf.
func lats(rs []*result, keep func(*result) bool) []time.Duration {
	var out []time.Duration
	for _, r := range rs {
		if keep(r) {
			if r.failed() {
				out = append(out, inf)
			} else {
				out = append(out, r.lat)
			}
		}
	}
	return out
}

// windowSlices is how many equal slices the window is cut into: every
// end-to-end figure but set-up time and capacity is the median over the
// slices of that slice's figure, so a few seconds of a slow host move it
// less than a pooled figure would. A p99 uses fewer, longer slices when
// its class is small (see minTail), and is not reported at all when the
// class has fewer than minTail samples in the whole window.
const windowSlices = 10

func endToEndMetrics(rep *report, o options, m *measured, window []*result, steps []ladderStep, capacity float64) {
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	elapsed := m.end.Sub(m.start)
	classes := []struct {
		prefix string
		keep   func(*result) bool
	}{
		{"latency", func(*result) bool { return true }},
		{"write", func(r *result) bool { return r.req.kind.write() }},
		{"read", func(r *result) bool { return !r.req.kind.write() }},
	}
	var tputs, cpus, heaps []float64
	p50s := make([][]float64, len(classes))
	for k := range windowSlices {
		lo := m.start.Add(elapsed * time.Duration(k) / windowSlices)
		hi := m.start.Add(elapsed * time.Duration(k+1) / windowSlices)
		done := 0
		for _, r := range window {
			if !r.failed() && !r.done.Before(lo) && r.done.Before(hi) {
				done++
			}
		}
		tputs = append(tputs, float64(done)/hi.Sub(lo).Seconds())
		cpu, heap := m.peaks.slice(lo, hi)
		cpus = append(cpus, ratio(float64(cpu)/1e6, float64(done)))
		heaps = append(heaps, float64(heap)/1e6)
		for i, c := range classes {
			xs := lats(window, func(r *result) bool { return c.keep(r) && !r.base.Before(lo) && r.base.Before(hi) })
			if len(xs) > 0 {
				p50, _ := quantile(xs, 0.5)
				p50s[i] = append(p50s[i], ms(p50))
			}
		}
	}
	tput := median(tputs)
	put("throughput_rps", "req/s", tput)
	put("cpu_ms_per_req", "ms", median(cpus))
	put("peak_heap_mb", "MB", median(heaps))
	rep.note("window %.3fs in %d slices, %d attempted, %d failed; per-slice req/s %v", elapsed.Seconds(), windowSlices, rep.Attempted, rep.Failed, rounded(tputs))
	for i, c := range classes {
		xs := lats(window, c.keep)
		put(c.prefix+"_p50_ms", "ms", median(slices.Clone(p50s[i])))
		rep.note("%s: %d samples; p50 per slice (ms) %v", c.prefix, len(xs), rounded(p50s[i]))
		if len(xs) >= o.minTail {
			// A p99 slice needs minTail samples of the class, so that
			// each slice's p99 has minTail/100 samples beyond it.
			k := min(windowSlices, len(xs)/o.minTail)
			var p99s []float64
			for j := range k {
				lo := m.start.Add(elapsed * time.Duration(j) / time.Duration(k))
				hi := m.start.Add(elapsed * time.Duration(j+1) / time.Duration(k))
				p99, _ := quantile(lats(window, func(r *result) bool { return c.keep(r) && !r.base.Before(lo) && r.base.Before(hi) }), 0.99)
				p99s = append(p99s, ms(p99))
			}
			put(c.prefix+"_p99_ms", "ms", median(slices.Clone(p99s)))
			rep.note("%s: p99 per slice of at least %d samples (ms) %v", c.prefix, o.minTail, rounded(p99s))
		} else {
			rep.note("%s: p99 not reported (%d < %d samples)", c.prefix, len(xs), o.minTail)
		}
	}
	if o.sp.rate > 0 {
		// Open loop only: the highest offered rate that meets the limit.
		for i, st := range steps {
			rep.note("ladder step %d: offered %.1f/s achieved %.1f/s p99 %.2f ms over %d pass=%v", i+1, st.rate, st.achieved, ms(st.p99), st.n, st.pass)
		}
		if capacity == 0 {
			// No ladder step passed: the nominal rate is the highest
			// rate known to meet the limit, if it does.
			p99, _ := quantile(lats(window, func(*result) bool { return true }), 0.99)
			if p99 <= sloP99 && tput >= sloAchieved*o.sp.rate {
				capacity = tput
			}
		}
		put("capacity_rps", "req/s", capacity)
	}
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// probe sends, traced and from one caller, the serve calls the window's
// traced half did not make often enough to time (a mix without Len or
// EvalDAG, say), so every serve span metric exists on every workload.
func probe(s *serve.Server, sp spec, seed uint64, rc *recorder, tr *tracer) {
	const enough, n = 50, 100
	g := newGen(sp, seed, streamProbe)
	for _, k := range []kind{opUnion, opContains, opLen, opDAG} {
		if len(tr.durations(serveSpanName[k])) >= enough {
			continue
		}
		for range n {
			slot := rc.slot()
			slot.phase, slot.base = phProbe, rc.at(time.Now())
			rc.do(s, g.draw(k), slot, tr)
		}
	}
}

func perLayerMetrics(rep *report, o options, m *measured, window []*result, orc *oracle, tr *tracer, totals serve.Metrics, scratch string) error {
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	var traced, untraced []*result
	for _, r := range window {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	n := 0.0
	for _, r := range traced {
		if !r.failed() {
			n++
		}
	}
	a, b := m.atStart, m.atEnd
	dt := b.t.Sub(a.t)
	perReq := func(x int64) float64 { return ratio(float64(x), n) }

	put("sched.cells_per_req", "count", perReq(cells(b.sched)-cells(a.sched)))
	put("sched.spawns_per_req", "count", perReq(b.sched.Spawns-a.sched.Spawns))
	put("sched.suspensions_per_req", "count", perReq(b.sched.Suspensions-a.sched.Suspensions))
	put("sched.steals_per_req", "count", perReq(b.sched.Steals-a.sched.Steals))
	put("sched.deviations_per_ktask", "count", 1000*ratio(float64(b.sched.Deviations-a.sched.Deviations), float64(b.sched.Tasks-a.sched.Tasks)))
	put("sched.mailbox_hits_per_req", "count", perReq(b.sched.MailboxHits-a.sched.MailboxHits))
	put("sched.busy_frac", "ratio", ratio(float64(busy(b.sched)-busy(a.sched)), float64(len(b.sched.BusyNanos))*float64(dt)))
	put("sched.max_deque", "tasks", float64(m.peaks.dequePeak))

	put("gc.allocs_per_req", "count", ratio(gcDelta(a.gc, b.gc, mAllocObjs), n))
	put("gc.alloc_bytes_per_req", "B", ratio(gcDelta(a.gc, b.gc, mAllocBytes), n))
	put("gc.cpu_frac", "ratio", ratio(gcDelta(a.gc, b.gc, mGCCPU), gcDelta(a.gc, b.gc, mTotalCPU)))
	put("gc.pause_p99_us", "us", pauseP99(a.gc, b.gc)*1e6)

	sa, sb := a.serve, b.serve
	put("serve.pieces_per_batch", "count", ratio(float64(shardPieces(sb)-shardPieces(sa)), float64(sb.Batches-sa.Batches)))
	put("serve.shed_frac", "ratio", ratio(float64(sb.ShedOverload+sb.ShedDraining-sa.ShedOverload-sa.ShedDraining), float64(sb.Offered-sa.Offered)))
	put("serve.dag_nodes_per_req", "count", ratio(float64(totals.DAGNodes), float64(totals.DAGRequests)))
	for _, c := range []struct{ metric, span string }{
		{"serve.apply_p50_us", "serve.Apply"}, {"serve.contains_p50_us", "serve.Contains"},
		{"serve.len_p50_us", "serve.Len"}, {"serve.evaldag_p50_us", "serve.EvalDAG"},
	} {
		xs := tr.durations(c.span)
		d, _ := quantile(xs, 0.5)
		put(c.metric, "us", us(d))
		rep.note("%s spans: %d", c.span, len(xs))
	}

	layer, wrong, err := replayLayers(o.sp, orc, window, tr, scratch)
	if err != nil {
		return err
	}
	for _, w := range wrong {
		rep.Correct = false
		rep.note("FAIL replay: %s", w)
	}
	for _, nm := range perLayer {
		if v, ok := layer[nm.name]; ok {
			put(nm.name, nm.unit, v)
		}
	}
	if o.sp.durable {
		// The live server's group commit and snapshot lag, not the replay's.
		put("persist.records_per_fsync", "count", ratio(float64(sb.WalRecords-sa.WalRecords), float64(sb.WalSyncs-sa.WalSyncs)))
		put("persist.snapshot_lag", "versions", float64(m.peaks.lagPeak))
	} else {
		put("persist.snapshot_lag", "versions", 0)
	}

	var lagXs []time.Duration
	for _, r := range window {
		lagXs = append(lagXs, r.lag)
	}
	lag, _ := quantile(lagXs, 0.99)
	put("loadgen.send_lag_p99_us", "us", us(lag))
	put("failed_frac", "ratio", ratio(float64(rep.Failed), float64(rep.Attempted)))
	pu, _ := quantile(lats(untraced, func(*result) bool { return true }), 0.5)
	pt, _ := quantile(lats(traced, func(*result) bool { return true }), 0.5)
	put("trace.overhead_frac", "ratio", ratio(float64(pt), float64(pu))-1)
	rep.note("tracing overhead: untraced half p50 %.3f ms (%d req), traced half p50 %.3f ms (%d req)", ms(pu), len(untraced), ms(pt), len(traced))

	counts := tr.layerCounts()
	rep.note("spans: bench=%d serve=%d paralg=%d sched=%d persist=%d", counts["bench"], counts["serve"], counts["paralg"], counts["sched"], counts["persist"])
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.sp.name, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}
