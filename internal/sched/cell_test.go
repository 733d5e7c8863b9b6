package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCellWriteThenTouchRunsInline(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	c := NewCell[int](rt)
	c.Write(nil, 7)
	ran := false
	c.Touch(nil, func(_ *Worker, v int) {
		ran = true
		if v != 7 {
			t.Errorf("touch got %d, want 7", v)
		}
	})
	if !ran {
		t.Fatal("touch of a written cell must run inline")
	}
	if got := rt.Counters().Suspensions; got != 0 {
		t.Fatalf("suspensions = %d, want 0", got)
	}
}

func TestCellTouchBeforeWriteSuspends(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	c := NewCell[string](rt)
	got := NewCell[string](rt)
	c.Touch(nil, func(w *Worker, v string) { got.Write(w, v+"!") })
	if c.Ready() {
		t.Fatal("cell ready before write")
	}
	c.Write(nil, "hi")
	if v := got.Read(); v != "hi!" {
		t.Fatalf("continuation produced %q, want %q", v, "hi!")
	}
	rt.Wait()
	ctr := rt.Counters()
	if ctr.Suspensions < 1 || ctr.Reactivations < 1 {
		t.Fatalf("want ≥1 suspension and reactivation, got %+v", ctr)
	}
}

func TestCellManyWaiters(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	c := NewCell[int](rt)
	const waiters = 1000
	var sum atomic.Int64
	for i := 0; i < waiters; i++ {
		c.Touch(nil, func(_ *Worker, v int) { sum.Add(int64(v)) })
	}
	c.Write(nil, 3)
	rt.Wait()
	if got := sum.Load(); got != 3*waiters {
		t.Fatalf("sum = %d, want %d", got, 3*waiters)
	}
	if got := rt.Counters().Reactivations; got != waiters {
		t.Fatalf("reactivations = %d, want %d", got, waiters)
	}
}

func TestCellDoubleWritePanics(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	c := NewCell[int](rt)
	c.Write(nil, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double write")
		}
	}()
	c.Write(nil, 2)
}

func TestDoneCell(t *testing.T) {
	c := Done(42)
	if !c.Ready() {
		t.Fatal("Done cell not ready")
	}
	if v, ok := c.TryRead(); !ok || v != 42 {
		t.Fatalf("TryRead = %d,%v", v, ok)
	}
	if c.Read() != 42 {
		t.Fatal("Read mismatch")
	}
	ran := false
	c.Touch(nil, func(_ *Worker, v int) { ran = v == 42 })
	if !ran {
		t.Fatal("Touch on Done cell must run inline")
	}
}

// TestDoneOn pins the born-written path the paralg converters use: a
// DoneOn cell behaves like a Done cell, survives its runtime's shutdown,
// and is counted in CellsShared (and only there).
func TestDoneOn(t *testing.T) {
	rt := NewRuntime(1)
	before := rt.Counters()
	c := DoneOn(rt, 7)
	d := rt.Counters().Sub(before)
	if d.CellsShared != 1 || d.CellsLinear != 0 || d.CellsForwarded != 0 {
		t.Fatalf("DoneOn counted cells=%d/%d/%d, want 1/0/0", d.CellsShared, d.CellsLinear, d.CellsForwarded)
	}
	ran := false
	c.Touch(nil, func(_ *Worker, v int) { ran = v == 7 })
	if !ran {
		t.Fatal("Touch on a DoneOn cell must run inline")
	}
	rt.Shutdown()
	if v, err := c.ReadErr(); err != nil || v != 7 {
		t.Fatalf("ReadErr after Shutdown = %d, %v; want 7, nil", v, err)
	}
	if got := DoneOn[int](nil, 3).Read(); got != 3 {
		t.Fatalf("DoneOn(nil) reads %d, want 3", got)
	}
}

// TestCellTouchWriteRace hammers the suspend/write race: many cells, each
// with concurrent touchers racing one writer; every continuation must run
// exactly once.
func TestCellTouchWriteRace(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	const (
		cells    = 200
		touchers = 8
	)
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		c := NewCell[int](rt)
		for r := 0; r < touchers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Touch(nil, func(_ *Worker, v int) { runs.Add(1) })
			}()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Write(nil, i)
		}(i)
	}
	wg.Wait()
	rt.Wait()
	if got := runs.Load(); got != cells*touchers {
		t.Fatalf("continuations ran %d times, want %d", got, cells*touchers)
	}
}

// TestExternalReadBlocksUntilWrite reads a cell from outside the runtime
// while worker tasks produce it through a chain of touches.
func TestExternalReadBlocksUntilWrite(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	out := NewCell[int](rt)
	inner := Spawn(rt, nil, func(*Worker) int { return 20 })
	inner.Touch(nil, func(w *Worker, v int) { out.Write(w, v+22) })
	if got := out.Read(); got != 42 {
		t.Fatalf("external Read = %d, want 42", got)
	}
	rt.Wait()
}
