package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"pipefut/internal/sched"
	"pipefut/internal/serve"
)

// The runtime/metrics the gc layer reads.
const (
	mAllocObjs  = "/gc/heap/allocs:objects"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mPauses     = "/sched/pauses/total/gc:seconds"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
)

var gcNames = []string{mAllocObjs, mAllocBytes, mGCCPU, mTotalCPU, mPauses}

// snap is every layer counter at one boundary.
type snap struct {
	t     time.Time
	cpu   time.Duration // process user+sys (getrusage)
	sched sched.Counters
	serve serve.Metrics
	gc    map[string]metrics.Value
}

func takeSnap(s *serve.Server) snap {
	sn := snap{sched: s.Runtime().Counters(), serve: s.Metrics(), gc: readGC()}
	sn.cpu = processCPU()
	sn.t = time.Now()
	return sn
}

// processCPU is the process's user+sys CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readGC() map[string]metrics.Value {
	ss := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := map[string]metrics.Value{}
	for _, s := range ss {
		out[s.Name] = s.Value
	}
	return out
}

// gcDelta is the change of a scalar runtime metric between snaps.
func gcDelta(a, b map[string]metrics.Value, name string) float64 {
	va, vb := a[name], b[name]
	switch vb.Kind() {
	case metrics.KindUint64:
		return float64(vb.Uint64() - va.Uint64())
	case metrics.KindFloat64:
		return vb.Float64() - va.Float64()
	}
	return 0
}

// pauseP99 is the p99 of GC pauses that happened between the snaps, in
// seconds, from the difference of the pause histograms (the bucket's
// upper bound); 0 when no pause happened.
func pauseP99(a, b map[string]metrics.Value) float64 {
	ha, hb := a[mPauses].Float64Histogram(), b[mPauses].Float64Histogram()
	var total uint64
	counts := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := (total*99 + 99) / 100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= need {
			return hb.Buckets[i+1]
		}
	}
	return hb.Buckets[len(hb.Buckets)-1]
}

// sampler polls, through one window, the values only a peak or a time
// series reveals: live heap bytes and process CPU (per tick, so both can
// be cut into slices of the window), the deepest scheduler deque, and
// (with persistence on) the snapshot lag.
type sampler struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	ticks     []tick
	dequePeak int
	lagPeak   uint64
}

type tick struct {
	t    time.Time
	cpu  time.Duration
	heap uint64
}

func startSampler(s *serve.Server, durable bool) *sampler {
	sm := &sampler{stop: make(chan struct{})}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		heap := []metrics.Sample{{Name: mHeapLive}}
		for n := 0; ; n++ {
			metrics.Read(heap)
			sm.ticks = append(sm.ticks, tick{time.Now(), processCPU(), heap[0].Value.Uint64()})
			_, d := s.Runtime().Backlog()
			sm.dequePeak = max(sm.dequePeak, d)
			if durable && n%20 == 0 {
				sm.lagPeak = max(sm.lagPeak, s.Metrics().SnapshotLag)
			}
			select {
			case <-sm.stop:
				return
			case <-ticker.C:
			}
		}
	}()
	return sm
}

// end stops the sampler and waits for it; its peaks are then final.
func (sm *sampler) end() {
	close(sm.stop)
	sm.wg.Wait()
}

// shardPieces sums the per-shard admitted mutation pieces.
func shardPieces(m serve.Metrics) int64 {
	var n int64
	for _, sh := range m.PerShard {
		n += sh.Admitted
	}
	return n
}

func cells(c sched.Counters) int64 { return c.CellsShared + c.CellsLinear + c.CellsForwarded }

func busy(c sched.Counters) int64 {
	var n int64
	for _, b := range c.BusyNanos {
		n += b
	}
	return n
}

// slice returns the CPU spent and the peak heap seen between lo and hi.
func (sm *sampler) slice(lo, hi time.Time) (cpu time.Duration, heap uint64) {
	var first, last *tick
	for i := range sm.ticks {
		tk := &sm.ticks[i]
		if tk.t.Before(lo) || !tk.t.Before(hi) {
			continue
		}
		if first == nil {
			first = tk
		}
		last = tk
		heap = max(heap, tk.heap)
	}
	if first == nil {
		return 0, 0
	}
	return last.cpu - first.cpu, heap
}
