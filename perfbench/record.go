package main

// Request records live outside the Go heap. A run keeps one record per
// request for the oracle, hundreds of thousands of them on the fast
// workloads; on the heap they would dominate peak_heap_mb, lengthen
// every GC cycle of the server under test, and grow with the server's
// own throughput. So records are pointer-free, written into an
// anonymous mapping the collector never sees, and carry no inputs: the
// inputs are drawn again from the seed when the run is checked.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

// rec is one request's outcome as recorded during a run. Times are
// nanoseconds since the recorder's epoch.
type rec struct {
	id       int64
	base     int64 // latency origin: due instant (open loop) or send instant
	send     int64
	done     int64
	lag      int64
	ver      uint64
	got      int64
	cut      [shards]uint64
	kind     kind
	phase    phase
	traced   bool
	hasCut   bool
	shard    int8
	failCode uint8
}

const (
	failNone uint8 = iota
	failOverloaded
	failDraining
	failOther
)

// recorder hands out record slots from a fixed off-heap arena.
type recorder struct {
	epoch time.Time
	mem   []byte
	recs  []rec
	n     atomic.Int64
	full  atomic.Bool

	mu   sync.Mutex
	errs map[int64]error // the unexpected (non-shed) errors, by request id
}

func newRecorder(capacity int) (*recorder, error) {
	size := capacity * int(unsafe.Sizeof(rec{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("record arena: %w", err)
	}
	return &recorder{
		epoch: time.Now(),
		mem:   mem,
		recs:  unsafe.Slice((*rec)(unsafe.Pointer(&mem[0])), capacity),
		errs:  map[int64]error{},
	}, nil
}

// free unmaps the arena; no record may be used afterwards.
func (rc *recorder) free() {
	rc.recs = nil
	syscall.Munmap(rc.mem)
}

// slot returns a fresh record, or a scratch one once the arena is full
// (the run then fails: see expand).
func (rc *recorder) slot() *rec {
	i := rc.n.Add(1) - 1
	if i >= int64(len(rc.recs)) {
		rc.full.Store(true)
		return &rec{}
	}
	return &rc.recs[i]
}

func (rc *recorder) at(t time.Time) int64 { return int64(t.Sub(rc.epoch)) }

func (rc *recorder) time(ns int64) time.Time { return rc.epoch.Add(time.Duration(ns)) }

// do sends one request and records its outcome in slot; the caller has
// set slot.base and slot.phase. With tr non-nil the call is traced as a
// serve span under the request's root span.
func (rc *recorder) do(s *serve.Server, r *request, slot *rec, tr *tracer) {
	slot.id, slot.kind = r.id, r.kind
	send := time.Now()
	var err error
	var cut serve.Cut
	switch r.kind {
	case opUnion, opDiff, opIntersect:
		cut, err = s.Apply(r.kind.op(), r.keys)
	case opContains:
		var ok bool
		ok, slot.ver, err = s.Contains(r.key)
		slot.shard = int8(s.ShardOf(r.key))
		if ok {
			slot.got = 1
		}
	case opLen:
		var n int
		n, cut, err = s.Len()
		slot.got = int64(n)
	case opDAG:
		var d serve.DAGResult
		d, err = s.EvalDAG(dagRequest(r))
		slot.got, cut = int64(d.Count), d.Cut
	}
	done := time.Now()
	slot.send, slot.done = rc.at(send), rc.at(done)
	if len(cut) == shards {
		slot.hasCut = true
		copy(slot.cut[:], cut)
	}
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrOverloaded):
		slot.failCode = failOverloaded
	case errors.Is(err, serve.ErrDraining):
		slot.failCode = failDraining
	default:
		slot.failCode = failOther
		rc.mu.Lock()
		rc.errs[r.id] = err
		rc.mu.Unlock()
	}
	if tr != nil {
		slot.traced = true
		base := rc.time(slot.base)
		root := tr.add(0, r.id, "bench", "request", base, done, nil)
		tr.add(root, r.id, "serve", serveSpanName[r.kind], send, done, nil)
	}
}

var serveSpanName = [...]string{"serve.Apply", "serve.Apply", "serve.Apply", "serve.Contains", "serve.Len", "serve.EvalDAG"}

// Request id streams: closed-loop caller c draws stream c; the open
// loop draws streamOpen; traced probes draw streamProbe by kind; the
// set-up preload is the single request of streamPreload.
const (
	streamOpen    = 1000
	streamProbe   = 2000
	streamPreload = 3000
	streamShift   = 40
)

// expand turns the records into results, drawing every request's inputs
// again from the seed: each stream is replayed in id order through the
// same generator calls that drew it, and every regenerated id and kind
// must match its record.
func (rc *recorder) expand(sp spec, seed uint64) ([]*result, error) {
	if rc.full.Load() {
		return nil, fmt.Errorf("record arena of %d records overflowed", len(rc.recs))
	}
	recs := rc.recs[:rc.n.Load()]
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(recs[a].id, recs[b].id) })
	out := make([]*result, len(recs))
	var g *gen
	stream := int64(-1)
	for _, i := range order {
		r := &recs[i]
		if st := r.id >> streamShift; st != stream {
			stream, g = st, newGen(sp, seed, int(st))
		}
		var req *request
		switch stream {
		case streamPreload:
			req = preloadRequest(sp, seed)
		case streamProbe:
			req = g.draw(r.kind)
		default:
			req = g.next()
		}
		if req.id != r.id || req.kind != r.kind {
			return nil, fmt.Errorf("request %d (%s) regenerates as %d (%s)", r.id, r.kind, req.id, req.kind)
		}
		res := &result{
			req: req, phase: r.phase, traced: r.traced,
			base: rc.time(r.base), send: rc.time(r.send), done: rc.time(r.done),
			lag: time.Duration(r.lag), ver: r.ver, shard: int(r.shard), got: int(r.got),
		}
		res.lat = res.done.Sub(res.base)
		if r.failCode != failNone {
			res.lat = inf
		}
		if r.hasCut {
			res.cut = slices.Clone(serve.Cut(r.cut[:]))
		}
		switch r.failCode {
		case failOverloaded:
			res.err = serve.ErrOverloaded
		case failDraining:
			res.err = serve.ErrDraining
		case failOther:
			res.err = rc.errs[r.id]
		}
		out[i] = res
	}
	return out, nil
}

// preloadRequest is the set-up's one union of sp.preload distinct keys.
func preloadRequest(sp spec, seed uint64) *request {
	return &request{
		id: streamPreload<<streamShift | 1, kind: opUnion,
		keys: workload.DistinctKeys(workload.NewRNG(seed+7), sp.preload, sp.universe),
	}
}
