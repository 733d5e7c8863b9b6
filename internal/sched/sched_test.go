package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestWstatsPadded keeps each worker's counter block a whole number of
// cache lines, so neighbouring workers' blocks never share a line.
// Adding or removing a counter means recomputing the trailing pad.
func TestWstatsPadded(t *testing.T) {
	if n := unsafe.Sizeof(wstats{}); n%64 != 0 {
		t.Fatalf("sizeof(wstats) = %d bytes, not a multiple of 64", n)
	}
}

// treeSum forks a binary tree of tasks of the given depth and sums one
// per leaf — a pure fork/join load with 2^depth leaves.
func treeSum(rt *Runtime, w *Worker, depth int) *Cell[int64] {
	if depth == 0 {
		return Done[int64](1)
	}
	out := NewCell[int64](rt)
	rt.Fork(w, func(w *Worker) {
		l := treeSum(rt, w, depth-1)
		r := treeSum(rt, w, depth-1)
		l.Touch(w, func(w *Worker, lv int64) {
			r.Touch(w, func(w *Worker, rv int64) {
				out.Write(w, lv+rv)
			})
		})
	})
	return out
}

func TestRuntimeTreeSum(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		rt := NewRuntime(p)
		const depth = 14
		got := treeSum(rt, nil, depth)
		if v := got.Read(); v != 1<<depth {
			t.Errorf("p=%d: treeSum = %d, want %d", p, v, 1<<depth)
		}
		rt.Wait()
		ctr := rt.Counters()
		if ctr.Tasks != ctr.Spawns+ctr.Suspensions {
			t.Errorf("p=%d: tasks=%d but spawns+suspensions=%d+%d — retired work must equal scheduled work",
				p, ctr.Tasks, ctr.Spawns, ctr.Suspensions)
		}
		if ctr.Suspensions != ctr.Reactivations {
			t.Errorf("p=%d: suspensions=%d reactivations=%d — every parked continuation must be requeued",
				p, ctr.Suspensions, ctr.Reactivations)
		}
		if ctr.Spawns < 1<<(depth-1) {
			t.Errorf("p=%d: spawns=%d, want ≥ %d", p, ctr.Spawns, 1<<(depth-1))
		}
		rt.Shutdown()
	}
}

func TestRuntimeWaitQuiescence(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	var done atomic.Int64
	const n = 10000
	for i := 0; i < n; i++ {
		rt.Fork(nil, func(w *Worker) {
			rt.Fork(w, func(*Worker) { done.Add(1) })
		})
	}
	rt.Wait()
	if got := done.Load(); got != n {
		t.Fatalf("after Wait, %d/%d inner tasks done", got, n)
	}
	if p := rt.pending.Load(); p != 0 {
		t.Fatalf("pending = %d after Wait", p)
	}
}

func TestRuntimeStealsHappen(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	// One worker fills its own deque and then holds itself busy
	// (yielding the OS thread, which matters on GOMAXPROCS=1) until a
	// task runs on some other worker — which can only happen by theft
	// from the top of the full deque.
	var crossRuns atomic.Int64
	done := NewCell[int](rt)
	rt.Fork(nil, func(w *Worker) {
		const n = 64
		for i := 0; i < n; i++ {
			rt.Fork(w, func(w2 *Worker) {
				if w2 != w {
					crossRuns.Add(1)
				}
			})
		}
		deadline := time.Now().Add(10 * time.Second)
		for crossRuns.Load() == 0 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		done.Write(w, 1)
	})
	done.Read()
	rt.Wait()
	ctr := rt.Counters()
	if crossRuns.Load() == 0 || ctr.Steals == 0 {
		t.Errorf("no steals: cross-worker runs=%d, steal counter=%d", crossRuns.Load(), ctr.Steals)
	}
	if ctr.MaxDeque < 2 {
		t.Errorf("MaxDeque = %d, want ≥ 2", ctr.MaxDeque)
	}
	busy := int64(0)
	for _, b := range ctr.BusyNanos {
		busy += b
	}
	if busy <= 0 {
		t.Errorf("no busy time recorded: %v", ctr.BusyNanos)
	}
}

func TestRuntimeShutdownIdempotent(t *testing.T) {
	rt := NewRuntime(2)
	rt.Fork(nil, func(*Worker) {})
	rt.Wait()
	rt.Shutdown()
	rt.Shutdown() // must not hang or panic
}

func TestSpawnChain(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	// A dependency chain c[i+1] = c[i]+1 built back-to-front so every
	// link suspends before its input is written.
	const n = 1000
	cells := make([]*Cell[int], n+1)
	for i := range cells {
		cells[i] = NewCell[int](rt)
	}
	for i := 0; i < n; i++ {
		i := i
		rt.Fork(nil, func(w *Worker) {
			cells[i].Touch(w, func(w *Worker, v int) { cells[i+1].Write(w, v+1) })
		})
	}
	cells[0].Write(nil, 0)
	if got := cells[n].Read(); got != n {
		t.Fatalf("chain result = %d, want %d", got, n)
	}
	rt.Wait()
}

func TestForkAfterShutdownPanics(t *testing.T) {
	rt := NewRuntime(1)
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Fork after Shutdown")
		}
	}()
	rt.Fork(nil, func(*Worker) {})
}
