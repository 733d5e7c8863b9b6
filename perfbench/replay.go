package main

// The traced replay: after the window, a sample of the run's recorded
// inputs is replayed single-threaded straight into the layers under
// serve — paralg on a fresh sched runtime, and persist — so each
// layer's cost is timed on this workload's own operands and states,
// with the scheduler and heap counters sampled at the same boundaries.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/persist"
	"pipefut/internal/sched"
	"pipefut/internal/seqtreap"
	"pipefut/internal/serve"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

const (
	replayMutations = 96
	replayDAGs      = 48
)

// counted samples the counters a replay span carries.
type counted struct {
	c      sched.Counters
	allocs uint64
}

func countNow(rt *sched.Runtime) counted {
	s := []metrics.Sample{{Name: mAllocObjs}}
	metrics.Read(s)
	return counted{c: rt.Counters(), allocs: s[0].Value.Uint64()}
}

func (a counted) delta(b counted) map[string]int64 {
	return map[string]int64{
		"cells":       cells(b.c) - cells(a.c),
		"spawns":      b.c.Spawns - a.c.Spawns,
		"suspensions": b.c.Suspensions - a.c.Suspensions,
		"steals":      b.c.Steals - a.c.Steals,
		"allocs":      int64(b.allocs - a.allocs),
	}
}

// replayer holds the fresh runtime and the span sink of one replay.
type replayer struct {
	sp      spec
	pivots  []int
	rt      *paralg.SchedRuntime
	treap   paralg.RConfig
	t26     paralg.RConfig
	tr      *tracer
	times   map[string][]time.Duration
	opCell  int64
	opAlloc int64
	ops     int64
	wrong   []string
}

func newReplayer(sp spec, p int, tr *tracer) *replayer {
	rt := paralg.NewSchedRuntime(p)
	depth := paralg.DefaultConfig.SpawnDepth
	return &replayer{
		sp: sp, pivots: pivotsFor(sp.universe), rt: rt, tr: tr,
		// The configs the serve backends pin: shared cells and grain
		// coarsening for the treap, linear cells and no grain for t26.
		treap: paralg.RConfig{R: rt, SpawnDepth: depth, GrainCutoff: serve.DefaultGrainCutoff},
		t26:   paralg.RConfig{R: rt, SpawnDepth: depth, Discipline: paralg.LinearCells},
		times: map[string][]time.Duration{},
	}
}

// timed runs f and records its duration under name and as a paralg span
// carrying the counter deltas.
func (rp *replayer) timed(parent, req int64, name string, f func()) {
	before := countNow(rp.rt.RT)
	t0 := time.Now()
	f()
	t1 := time.Now()
	rp.tr.add(parent, req, "paralg", "paralg."+name, t0, t1, before.delta(countNow(rp.rt.RT)))
	rp.times[name] = append(rp.times[name], t1.Sub(t0))
}

type setOp func(c paralg.RConfig, ctx paralg.Ctx, a, b paralg.NodeCell) paralg.NodeCell

var setOps = []struct {
	name string
	f    setOp
}{
	{"union", paralg.RConfig.Union},
	{"diff", paralg.RConfig.Diff},
	{"intersect", paralg.RConfig.Intersect},
}

// chainRoot replays one mutation the way serve starts it — operand
// build, split at the pivots, the op on every touched shard, without
// waiting between stages — and returns the time until every result
// root is written (treap) or, on t26 whose Apply blocks until the batch
// materializes, until every insert run has materialized.
func (rp *replayer) chainRoot(r *result, pre []*seqtreap.Node) time.Duration {
	sorted := sortedDistinct(r.req.keys)
	if rp.sp.backend == "t26" {
		states := map[int]paralg.T26Cell{}
		for i, v := range r.cut {
			if v > 0 {
				states[i] = paralg.RFromSeqT26(rp.rt, t26.FromKeys(seqtreap.Keys(pre[i])))
			}
		}
		t0 := time.Now()
		for i, st := range states {
			paralg.RWaitT26(rp.t26.T26BulkInsert(nil, st, workload.WellSeparatedLevels(pieceOf(rp.pivots, sorted, i))))
		}
		return time.Since(t0)
	}
	states := map[int]paralg.NodeCell{}
	for i, v := range r.cut {
		if v > 0 {
			states[i] = paralg.RFromSeqTreap(rp.rt, pre[i])
		}
	}
	t0 := time.Now()
	pieces := rp.treap.SplitRanges(nil, rp.treap.BuildTreap(nil, sorted), rp.pivots)
	var roots []paralg.NodeCell
	for i, st := range states {
		roots = append(roots, rp.treap.Union(nil, st, pieces[i]))
	}
	for _, root := range roots {
		root.Read()
	}
	d := time.Since(t0)
	for _, root := range roots {
		paralg.RWait(root)
	}
	return d
}

// staged replays one mutation stage by stage, waiting for each stage to
// materialize, and every set operation (union, diff, intersect) plus the
// 2-6-tree insert on every touched shard, so each op's root and done
// times are measured on this workload's operands and shard states.
func (rp *replayer) staged(r *result, pre []*seqtreap.Node) {
	req := r.req.id
	root := rp.tr.add(0, req, "bench", "replay", time.Now(), time.Now(), nil)
	before := countNow(rp.rt.RT)
	t0 := time.Now()
	sorted := sortedDistinct(r.req.keys)
	var opd paralg.NodeCell
	rp.timed(root, req, "build_done", func() {
		opd = rp.treap.BuildTreap(nil, sorted)
		paralg.RWait(opd)
	})
	var pieces []paralg.NodeCell
	rp.timed(root, req, "split_done", func() {
		pieces = rp.treap.SplitRanges(nil, opd, rp.pivots)
		for _, p := range pieces {
			paralg.RWait(p)
		}
	})
	for i, v := range r.cut {
		if v == 0 {
			continue
		}
		st := paralg.RFromSeqTreap(rp.rt, pre[i])
		for _, op := range setOps {
			var out paralg.NodeCell
			c0 := countNow(rp.rt.RT)
			rp.timed(root, req, op.name+"_root", func() {
				out = op.f(rp.treap, nil, st, pieces[i])
				out.Read()
			})
			rp.timed(root, req, op.name+"_done", func() { paralg.RWait(out) })
			d := c0.delta(countNow(rp.rt.RT))
			rp.opCell += d["cells"]
			rp.opAlloc += d["allocs"]
			rp.ops++
			if op.name == "union" {
				got := seqtreap.Size(paralg.RToSeqTreap(out))
				if want := seqtreap.Size(seqtreap.Union(pre[i], seqtreap.FromKeys(pieceOf(rp.pivots, sorted, i)))); got != want {
					rp.wrong = append(rp.wrong, fmt.Sprintf("replayed union of request %d on shard %d has %d keys, oracle %d", req, i, got, want))
				}
			}
		}
		tt := paralg.RFromSeqT26(rp.rt, t26.FromKeys(seqtreap.Keys(pre[i])))
		levels := workload.WellSeparatedLevels(pieceOf(rp.pivots, sorted, i))
		rp.timed(root, req, "t26_insert", func() {
			paralg.RWaitT26(rp.t26.T26BulkInsert(nil, tt, levels))
		})
	}
	rp.tr.add(root, req, "sched", "sched.counters", t0, time.Now(), before.delta(countNow(rp.rt.RT)))
}

// dag hand-lowers one DAG onto the same paralg calls serve uses — per
// shard, the shard state as the set leaf and the shard's slice of each
// literal built as a treap — and times it until every shard's result
// has materialized. It returns the replayed count.
func (rp *replayer) dag(req *request, states []*seqtreap.Node) int {
	leaves := make([]paralg.NodeCell, shards)
	for i := range leaves {
		leaves[i] = paralg.RFromSeqTreap(rp.rt, states[i])
	}
	lits := make([][]int, len(req.lits))
	for j, l := range req.lits {
		lits[j] = sortedDistinct(l)
	}
	outs := make([]paralg.NodeCell, shards)
	rp.timed(0, req.id, "dag_done", func() {
		for i := range outs {
			c := rp.treap
			lit := func(j int) paralg.NodeCell { return c.BuildTreap(nil, pieceOf(rp.pivots, lits[j], i)) }
			switch req.shape {
			case 0:
				outs[i] = c.Diff(nil, c.Union(nil, leaves[i], lit(0)), lit(1))
			case 1:
				outs[i] = c.Union(nil, c.Union(nil, c.Union(nil, leaves[i], lit(0)), lit(1)), lit(2))
			default:
				outs[i] = c.Intersect(nil, leaves[i], lit(0))
			}
		}
		for _, o := range outs {
			paralg.RWait(o)
		}
	})
	n := 0
	for _, o := range outs {
		n += seqtreap.Size(paralg.RToSeqTreap(o))
	}
	return n
}

// persistReplay appends the sampled mutations' shard pieces to a fresh
// persist shard under the workload's fsync policy (batch), in rounds of
// as many records as the workload has concurrent writers, each round
// waiting until durable.
func (rp *replayer) persistReplay(dir string, samples []*result) (map[string]float64, error) {
	store, _, err := persist.OpenShard(dir, persist.Options{Policy: persist.FsyncBatch})
	if err != nil {
		return nil, err
	}
	var recs []persist.Record
	keys := 0
	for _, r := range samples {
		sorted := sortedDistinct(r.req.keys)
		for i, v := range r.cut {
			if v > 0 {
				piece := pieceOf(rp.pivots, sorted, i)
				recs = append(recs, persist.Record{Seq: uint64(len(recs) + 1), Kind: recordKind[r.req.kind], Keys: piece})
				keys += len(piece)
			}
		}
	}
	round := max(2, rp.sp.callers)
	var enc, wait []time.Duration
	var buf []byte
	for lo := 0; lo < len(recs); lo += round {
		batch := recs[lo:min(lo+round, len(recs))]
		var wg sync.WaitGroup
		done := make([]time.Time, len(batch))
		appended := make([]time.Time, len(batch))
		for j, rec := range batch {
			t0 := time.Now()
			buf = persist.AppendRecord(buf[:0], rec)
			t1 := time.Now()
			enc = append(enc, t1.Sub(t0))
			rp.tr.add(0, int64(rec.Seq), "persist", "persist.AppendRecord", t0, t1, nil)
			wg.Add(1)
			appended[j] = time.Now()
			if err := store.Append(rec, func() { done[j] = time.Now(); wg.Done() }); err != nil {
				store.Close()
				return nil, err
			}
		}
		wg.Wait()
		for j := range batch {
			wait = append(wait, done[j].Sub(appended[j]))
			rp.tr.add(0, int64(batch[j].Seq), "persist", "persist.Append", appended[j], done[j], nil)
		}
	}
	st := store.Stats()
	if err := store.Close(); err != nil {
		return nil, err
	}
	encP50, _ := quantile(enc, 0.5)
	waitP50, _ := quantile(wait, 0.5)
	return map[string]float64{
		"persist.records_per_fsync": ratio(float64(st.Records), float64(st.Syncs)),
		"persist.bytes_per_key":     ratio(float64(st.BytesLogged), float64(keys)),
		"persist.encode_us":         us(encP50),
		"persist.durable_wait_us":   us(waitP50),
	}, nil
}

var recordKind = [...]persist.Kind{opUnion: persist.KindUnion, opDiff: persist.KindDifference, opIntersect: persist.KindIntersect}

// replayLayers runs the whole replay and returns its per-layer metrics
// and any wrong replayed answers.
func replayLayers(sp spec, o *oracle, window []*result, tr *tracer, scratch string) (map[string]float64, []string, error) {
	rp := newReplayer(sp, runtime.GOMAXPROCS(0), tr)
	defer rp.rt.Close()

	var muts, dags []*result
	for _, r := range window {
		switch {
		case r.err != nil:
		case r.req.kind.write():
			muts = append(muts, r)
		case r.req.kind == opDAG:
			dags = append(dags, r)
		}
	}
	muts, dags = spread(muts, replayMutations), spread(dags, replayDAGs)
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("no acknowledged mutation to replay")
	}

	pre := func(r *result) []*seqtreap.Node {
		out := make([]*seqtreap.Node, shards)
		for i, v := range r.cut {
			if v > 0 {
				out[i], _ = o.at(i, v-1)
			}
		}
		return out
	}
	var overhead []float64
	for _, r := range muts {
		p := pre(r)
		if r.req.kind == opUnion {
			root := rp.chainRoot(r, p)
			overhead = append(overhead, us(r.done.Sub(r.send)-root))
		}
		rp.staged(r, p)
	}

	// DAGs: the recorded ones at the cut they observed, checked against
	// their recorded answers; a workload without DAG requests replays
	// the first two shapes over its recorded operands and final state.
	if len(dags) == 0 {
		final := o.final()
		var all *seqtreap.Node
		for _, st := range final {
			all = seqtreap.Join(all, st)
		}
		for j := 0; j+2 < len(muts) && j < 3*replayDAGs; j += 3 {
			req := &request{id: muts[j].req.id, kind: opDAG, shape: (j / 3) % 2}
			for _, m := range muts[j : j+2+req.shape] { // shape 0 takes two literals, shape 1 three
				req.lits = append(req.lits, m.req.keys)
			}
			if got, want := rp.dag(req, final), seqtreap.Size(evalDAG(all, req)); got != want {
				rp.wrong = append(rp.wrong, fmt.Sprintf("replayed DAG %d counts %d, oracle %d", req.id, got, want))
			}
		}
	}
	for _, r := range dags {
		states := make([]*seqtreap.Node, shards)
		for i, v := range r.cut {
			states[i], _ = o.at(i, v)
		}
		if got := rp.dag(r.req, states); got != r.got {
			rp.wrong = append(rp.wrong, fmt.Sprintf("replayed DAG %d counts %d, server answered %d", r.req.id, got, r.got))
		}
	}

	dir := filepath.Join(scratch, "persist-replay")
	pm, err := rp.persistReplay(dir, muts)
	os.RemoveAll(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist replay: %w", err)
	}

	out := pm
	for _, name := range []string{"union_root", "diff_root", "intersect_root", "union_done", "diff_done",
		"intersect_done", "split_done", "build_done", "t26_insert", "dag_done"} {
		d, _ := quantile(rp.times[name], 0.5)
		out["paralg."+name+"_us"] = us(d)
	}
	out["paralg.cells_per_op"] = ratio(float64(rp.opCell), float64(rp.ops))
	out["paralg.allocs_per_op"] = ratio(float64(rp.opAlloc), float64(rp.ops))
	out["serve.overhead_us"] = median(overhead)
	return out, rp.wrong, nil
}

// spread picks up to n elements evenly spaced through xs.
func spread(xs []*result, n int) []*result {
	if len(xs) <= n {
		return xs
	}
	out := make([]*result, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}
