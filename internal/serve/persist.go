package serve

// Durability glue between the shards and internal/persist. Three rules
// keep the applier's pipelining intact:
//
//   - Log before publish: the applier appends the run's record (and
//     hands the WAL a durability callback) before installing the result
//     root; persist.WAL.Append only buffers, so the applier still never
//     blocks on I/O.
//   - Ack after both: a request's pieces complete only once the run's
//     result root is published AND its record is durable under the
//     fsync policy — a two-arm countdown (durGate), racing the flusher
//     against the scheduler.
//   - Snapshots ride the pipeline: a background writer pins the
//     published (root, version) pair — free, the root is immutable by
//     structural sharing — and walks it with paralg.RSnapshotKeys,
//     suspending on ungenerated cells like any other continuation. The
//     applier races ahead; the walk photographs exactly the version it
//     pinned.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/persist"
	"pipefut/internal/sched"
)

// DefaultSnapshotEvery is the snapshot cadence (in per-shard versions)
// used when Config.SnapshotEvery is 0.
const DefaultSnapshotEvery = 256

func kindOf(op Op) persist.Kind {
	switch op {
	case OpUnion, OpInsert:
		return persist.KindUnion
	case OpDifference:
		return persist.KindDifference
	case OpIntersect:
		return persist.KindIntersect
	}
	panic("serve: no record kind for op " + string(op))
}

func opOfKind(k persist.Kind) Op {
	switch k {
	case persist.KindUnion:
		return OpUnion
	case persist.KindDifference:
		return OpDifference
	case persist.KindIntersect:
		return OpIntersect
	}
	panic("serve: no op for record kind " + k.String())
}

// pieceKeys slices one mutation's sorted distinct batch down to shard
// i's key range under the router's pivots — the keys the shard's WAL
// record carries.
func pieceKeys(sorted []int, pivots []int, i int) []int {
	lo, hi := 0, len(sorted)
	if i > 0 {
		lo = sort.SearchInts(sorted, pivots[i-1])
	}
	if i < len(pivots) {
		hi = sort.SearchInts(sorted, pivots[i])
	}
	return sorted[lo:hi]
}

// durGate completes a run's requests once both arms arrive: the result
// root published (ready, from the scheduler) and the record durable
// (durable, from the WAL flusher). Whichever arrives last — on
// whatever goroutine — releases the acks, or, if the WAL failed to make
// the record durable, fails the requests with ErrUnavailable.
type durGate struct {
	sh   *shard
	run  []shardReq
	v    uint64
	open atomic.Int32
	err  error // the WAL's error, set by durable before its countdown
}

func (g *durGate) durable(err error)    { g.err = err; g.arrive(nil) }
func (g *durGate) ready(ctx paralg.Ctx) { g.arrive(ctx) }
func (g *durGate) arrive(ctx paralg.Ctx) {
	if g.open.Add(-1) != 0 {
		return
	}
	if g.err != nil {
		g.sh.fail(ctx, g.run, g.err)
		return
	}
	for _, r := range g.run {
		g.sh.lat.record(time.Since(r.req.start))
		r.req.finish(ctx, g.sh.idx, g.v, nil)
	}
}

// fail completes the run's requests with ErrUnavailable wrapping the
// WAL's error: nothing in the run is acknowledged.
func (sh *shard) fail(ctx paralg.Ctx, run []shardReq, err error) {
	err = fmt.Errorf("%w: shard %d: %w", ErrUnavailable, sh.idx, err)
	for _, r := range run {
		r.req.finish(ctx, sh.idx, 0, err)
	}
}

// openStores opens every shard's durable store and rebuilds shard state:
// load the newest snapshot through the backend, then replay the log
// suffix through the normal apply path (pipelined on the treap backend —
// recovery itself rides the scheduler).
func (s *Server) openStores(dataDir string, policy persist.FsyncPolicy) error {
	for i, sh := range s.shards {
		store, rec, err := persist.OpenShard(shardDir(dataDir, i), persist.Options{Policy: policy})
		if err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
		sh.store = store
		sh.lastSnap.Store(rec.SnapshotSeq)
		if rec.SnapshotSeq > 0 || len(rec.Keys) > 0 {
			sh.st = s.be.Load(nil, rec.Keys)
		}
		for _, r := range rec.Records {
			op := opOfKind(r.Kind)
			sh.st = s.be.Apply(nil, sh.st, op, s.be.ReplayOperand(nil, op, r.Keys))
		}
		sh.version = rec.LastSeq
		sh.replayed = len(rec.Records)
	}
	return nil
}

func shardDir(dataDir string, i int) string {
	return fmt.Sprintf("%s/shard-%d", dataDir, i)
}

// maybeSnapshot starts a background snapshot of the just-published
// (state, version) pair when the shard has outrun its last durable
// snapshot by the configured cadence. At most one snapshot per shard is
// in flight; the applier only CASes a flag and forks — it never waits.
func (sh *shard) maybeSnapshot(st State, v uint64) {
	if sh.store == nil || sh.s.snapEvery <= 0 {
		return
	}
	if v-sh.lastSnap.Load() < uint64(sh.s.snapEvery) {
		return
	}
	if !sh.snapBusy.CompareAndSwap(false, true) {
		return
	}
	sh.s.persistWG.Add(1)
	go sh.snapshot(st, v)
}

// snapshot serializes the pinned root and makes it durable. Runs on its
// own goroutine but the walk itself is scheduler tasks; this goroutine
// only blocks on the walk's result cell and on snapshot file I/O.
func (sh *shard) snapshot(st State, v uint64) {
	defer sh.s.persistWG.Done()
	defer sh.snapBusy.Store(false)
	keys, err := sh.s.walkKeys(st)
	if err != nil {
		return // runtime shut down mid-walk; Close's final snapshot covers us
	}
	if err := sh.store.Snapshot(v, keys); err != nil {
		return // surfaced via store.Err; the next cadence retries
	}
	sh.lastSnap.Store(v)
}

// walkKeys runs the backend's snapshot walk as a scheduler task and
// blocks (this goroutine only) until the sorted key set is complete.
func (s *Server) walkKeys(st State) ([]int, error) {
	done := sched.NewCell[[]int](s.rt.RT)
	s.rt.RT.Fork(nil, func(w *sched.Worker) {
		s.be.Snapshot(w, st, func(ctx paralg.Ctx, keys []int) {
			done.Write(asWorker(ctx), keys)
		})
	})
	return done.ReadErr()
}

// closeStores runs at the tail of Close, after appliers, requests, and
// the scheduler have quiesced: take a final snapshot of any shard that
// outran its last one (the roots are fully materialized now, so the
// blocking Keys is cheap), then flush, fsync, and close each WAL. After
// a clean Close recovery finds a snapshot at the head version and an
// empty log suffix — a clean stop never replays.
func (s *Server) closeStores() {
	for _, sh := range s.shards {
		if sh.store == nil {
			continue
		}
		if sh.version > sh.lastSnap.Load() {
			if err := sh.store.Snapshot(sh.version, s.be.Keys(sh.st)); err == nil {
				sh.lastSnap.Store(sh.version)
			}
		}
		sh.store.Close()
	}
}
