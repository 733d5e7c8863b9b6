package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pipefut/internal/serve"
)

// windowPlan is how one measured window runs: warm-up first (checked,
// not measured), then the window. With tracing on, the first half of the
// window runs untraced and the second half traced, so the two halves
// price the tracing itself; the per-layer counters cover the traced half.
type windowPlan struct {
	warm    time.Duration
	window  time.Duration
	trace   bool
	minTail int // closed loop: extend the window, by at most twice its length, until each latency class has this many samples
}

// measured is one window's raw outcome; the requests' records are in
// the recorder.
type measured struct {
	start, end time.Time // the window (both halves)
	atStart    snap      // counters at the window start, or at the traced half's start
	atEnd      snap
	peaks      *sampler
}

const stopped = -1

// closedLoop runs sp.callers closed-loop callers: each sends its next
// request only after the previous reply.
func closedLoop(s *serve.Server, sp spec, seed uint64, plan windowPlan, rc *recorder, tr *tracer) *measured {
	var ph atomic.Int32
	var traced atomic.Bool
	var writes, reads atomic.Int64
	ph.Store(int32(phWarm))
	var wg sync.WaitGroup
	for c := range sp.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGen(sp, seed, c)
			var prev int64
			for {
				p := ph.Load()
				if p == stopped {
					return
				}
				slot := rc.slot()
				slot.phase = phase(p)
				slot.base = rc.at(time.Now())
				if prev != 0 {
					slot.lag = slot.base - prev
				}
				var t *tracer
				if traced.Load() {
					t = tr
				}
				req := g.next()
				rc.do(s, req, slot, t)
				prev = slot.done
				if slot.phase == phWindow {
					if req.kind.write() {
						writes.Add(1)
					} else {
						reads.Add(1)
					}
				}
			}
		}()
	}

	m := &measured{}
	time.Sleep(plan.warm)
	ph.Store(int32(phWindow))
	m.start = time.Now()
	m.atStart = takeSnap(s)
	m.peaks = startSampler(s, sp.durable)
	if plan.trace {
		time.Sleep(plan.window / 2)
		m.atStart = takeSnap(s)
		traced.Store(true)
		time.Sleep(plan.window - plan.window/2)
	} else {
		time.Sleep(plan.window)
	}
	for deadline := time.Now().Add(2 * plan.window); time.Now().Before(deadline); {
		if writes.Load() >= int64(plan.minTail) && reads.Load() >= int64(plan.minTail) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	ph.Store(stopped)
	wg.Wait()
	m.end = time.Now()
	m.peaks.end()
	m.atEnd = takeSnap(s)
	return m
}

// arrival is one pre-drawn open-loop request and its due offset.
type arrival struct {
	at     time.Duration
	req    *request
	phase  phase
	traced bool
}

// poisson draws n arrivals at rate per second after offset from, with
// exponential gaps.
func poisson(g *gen, n int, rate float64, from time.Duration, ph phase) []arrival {
	out := make([]arrival, n)
	at := from
	for i := range out {
		at += time.Duration(-math.Log(1-g.gaps.Float64()) / rate * float64(time.Second))
		out[i] = arrival{at: at, req: g.next(), phase: ph}
	}
	return out
}

// openLoop fires a pre-drawn schedule from one pacing goroutine: it
// sleeps until each arrival's due instant and hands the request to a
// fresh goroutine, so no request waits for another's reply. Latency
// runs from the due instant. marks[i], if set, runs just before arrival
// i fires. It returns the arrivals' records once every request is done.
func openLoop(s *serve.Server, arr []arrival, rc *recorder, tr *tracer, marks map[int]func()) []*rec {
	slots := make([]*rec, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if f := marks[i]; f != nil {
			f()
		}
		slot := rc.slot()
		slot.phase = a.phase
		slot.base = rc.at(start.Add(a.at))
		slots[i] = slot
		var t *tracer
		if a.traced {
			t = tr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot.lag = rc.at(time.Now()) - slot.base
			rc.do(s, a.req, slot, t)
		}()
	}
	wg.Wait()
	return slots
}

// openWindow runs the open-loop warm-up and window at sp.rate.
func openWindow(s *serve.Server, sp spec, g *gen, plan windowPlan, rc *recorder, tr *tracer) *measured {
	nWarm := int(math.Round(sp.rate * plan.warm.Seconds()))
	nWin := int(math.Round(sp.rate * plan.window.Seconds()))
	arr := poisson(g, nWarm, sp.rate, 0, phWarm)
	var from time.Duration
	if nWarm > 0 {
		from = arr[nWarm-1].at
	}
	arr = append(arr, poisson(g, nWin, sp.rate, from, phWindow)...)
	traceAt := len(arr)
	if plan.trace {
		traceAt = nWarm + nWin/2
		for i := traceAt; i < len(arr); i++ {
			arr[i].traced = true
		}
	}
	m := &measured{}
	marks := map[int]func(){
		nWarm: func() {
			m.start = time.Now()
			m.atStart = takeSnap(s)
			m.peaks = startSampler(s, sp.durable)
		},
	}
	if plan.trace {
		marks[traceAt] = func() { m.atStart = takeSnap(s) }
	}
	openLoop(s, arr, rc, tr, marks)
	m.end = time.Now()
	m.peaks.end()
	m.atEnd = takeSnap(s)
	return m
}

// ladderStep is one offered rate of the capacity ladder.
type ladderStep struct {
	rate     float64
	achieved float64
	p99      time.Duration
	n        int
	pass     bool
}

// Capacity limits: a step passes when its p99, timed from due instants
// with failures as +inf, stays within sloP99 and it completes at least
// sloAchieved of the rate its schedule offered.
const (
	sloP99       = 100 * time.Millisecond
	sloAchieved  = 0.95
	ladderGrow   = 1.10 // climbing steps are 10% apart
	ladderMax    = 30
	ladderBisect = 2 // then two log-space bisections: ~2.4% resolution
)

// runStep runs one ladder step: a fresh Poisson schedule at rate for d,
// drained before it is judged.
func runStep(s *serve.Server, g *gen, rate float64, d time.Duration, rc *recorder) ladderStep {
	n := max(1, int(math.Round(rate*d.Seconds())))
	arr := poisson(g, n, rate, 0, phLadder)
	start := rc.at(time.Now())
	var lats []time.Duration
	ok, last := 0, start
	for _, r := range openLoop(s, arr, rc, nil, nil) {
		if r.failCode != failNone {
			lats = append(lats, inf)
			continue
		}
		lats = append(lats, time.Duration(r.done-r.base))
		ok++
		last = max(last, r.done)
	}
	// The schedule's own span, not n/rate, is what was offered: judging
	// against n/rate would fail steps on Poisson count noise alone.
	sched := arr[n-1].at
	span := max(sched, time.Duration(last-start))
	st := ladderStep{rate: rate, n: n, achieved: float64(ok) / span.Seconds()}
	st.p99, _ = quantile(lats, 0.99)
	st.pass = st.p99 <= sloP99 && st.achieved >= sloAchieved*float64(n)/sched.Seconds()
	return st
}

// ladder climbs from the nominal rate in 10% steps until a step misses
// the limit, then bisects between the last pass and the first miss. It
// returns the steps and the achieved rate of the highest passing one.
func ladder(s *serve.Server, g *gen, nominal float64, d time.Duration, rc *recorder) ([]ladderStep, float64) {
	var steps []ladderStep
	run := func(rate float64) ladderStep {
		st := runStep(s, g, rate, d, rc)
		steps = append(steps, st)
		return st
	}
	best := 0.0
	bestRate := 0.0
	lo, hi := nominal, 0.0
	for k := 1; k <= ladderMax; k++ {
		rate := nominal * math.Pow(ladderGrow, float64(k))
		st := run(rate)
		if !st.pass {
			hi = rate
			break
		}
		lo, best, bestRate = rate, st.achieved, rate
	}
	for range ladderBisect {
		if hi == 0 {
			break
		}
		mid := math.Sqrt(lo * hi)
		if st := run(mid); st.pass {
			lo = mid
			if mid > bestRate {
				best, bestRate = st.achieved, mid
			}
		} else {
			hi = mid
		}
	}
	return steps, best
}
