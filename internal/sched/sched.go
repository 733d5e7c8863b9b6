// Package sched is an explicit work-stealing futures runtime: the greedy
// scheduler of Section 4 of "Pipelining with Futures" built as a bounded
// worker pool instead of one goroutine per future call.
//
// A Runtime owns p workers, each a single goroutine with a private
// Chase–Lev deque. Forked tasks go to the bottom of the forking worker's
// deque and are popped LIFO — the stack discipline of Lemma 4.1, under
// which the paper proves the O(w/p + d) bound — while idle workers steal
// from the top (the oldest, largest pieces of the unfolding DAG, which is
// also what keeps Herlihy & Liu's steal/deviation count low). A Cell that
// is touched before its write does not block a goroutine: it suspends the
// toucher's *continuation* onto the cell's waiter list, and the write
// requeues every waiter onto the writer's deque. Millions of outstanding
// forks therefore cost O(1) goroutines per worker, where the
// goroutine-per-Spawn runtime of package future would need one goroutine
// per suspended thread.
//
// Every scheduling event is counted (spawns, steals, suspensions,
// reactivations, deque depth, per-worker busy time); see Counters. The
// counters are what pipebench's sched experiment dumps alongside
// wall-clock time.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShutdown is returned by Cell.ReadErr (and carried by the panic in
// Cell.Read and Fork) when the runtime has been shut down and the
// requested value can no longer be produced.
var ErrShutdown = errors.New("sched: runtime is shut down")

// NoAffinity is the affinity argument to Submit meaning "no preferred
// worker": the task goes to the injection queue like a plain Fork(nil).
const NoAffinity = -1

// Options tunes a runtime's locality policy. The zero value reproduces
// the classic scheduler: one global victim sweep, steal-one, mailboxes
// available but unused unless someone calls Submit with a hint.
type Options struct {
	// Groups partitions the p workers into that many contiguous affinity
	// groups. A stealing worker sweeps its own group's deques before
	// going global, so work hinted at one group (AffinityFor) tends to
	// stay on the cores — and in the caches — of that group. Values < 2
	// (or > p, which is clamped) mean no grouping.
	Groups int
	// StealHalf makes a successful steal take half of the victim's deque
	// instead of one task: the first stolen task runs immediately and the
	// rest are respilled onto the thief's own deque, so a treap subtree
	// burst migrates once instead of leaking away one node at a time.
	StealHalf bool
	// MailboxCap bounds each worker's affinity mailbox. 0 means
	// DefaultMailboxCap; negative disables mailboxes entirely (Submit
	// hints fall back to the injection queue).
	MailboxCap int
}

// Runtime is a handle to a running worker pool. Create one with
// NewRuntime (or NewRuntimeOpts for the locality knobs), submit work
// with Fork, Submit, or Spawn, drain it with Wait, and stop the workers
// with Shutdown.
type Runtime struct {
	workers []*Worker
	opt     Options
	groups  [][]int // worker ids per affinity group (len 0 when ungrouped)

	// pending counts task closures that have been scheduled (Fork) or
	// suspended (Cell.Touch on an unwritten cell) and have not yet run
	// to completion. Zero means the runtime is quiescent.
	pending  atomic.Int64
	stopping atomic.Bool
	idlers   atomic.Int32 // workers in or entering park()

	// stopped is closed by Shutdown; external blockers (Cell.ReadErr)
	// select on it so a read of a cell stranded by Shutdown returns an
	// error instead of hanging forever.
	stopped chan struct{}

	mu        sync.Mutex
	workCond  *sync.Cond // parked workers wait here
	quietCond *sync.Cond // Wait callers wait here
	wakeGen   uint64     // bumped under mu whenever new work may exist
	inject    []task     // submissions from outside any worker
	injectLen atomic.Int64

	extern wstats // scheduling events attributed to no worker
	wg     sync.WaitGroup

	// Cell allocations. The count lives on the Runtime rather than in
	// the per-worker wstats blocks because the cell constructors take
	// the runtime, not a worker (cells are created from converters and
	// external callers as often as from tasks). Allocating a cell already
	// costs a heap allocation, so one shared atomic increment is noise.
	cellsShared atomic.Int64
}

// Worker is the scheduling context of one worker goroutine. Tasks receive
// their worker and must pass it along to Fork, Cell.Touch, and Cell.Write
// so forks and reactivations land on the local deque; a nil *Worker is
// valid everywhere and means "not on a worker" (external submission).
type Worker struct {
	rt    *Runtime
	id    int
	dq    deque
	mbox  mailbox
	rng   uint64 // xorshift state for victim selection
	stats wstats

	// Victim orders, precomputed at construction. peers lists every
	// other worker in ring order starting just past this one;
	// groupPeers is the subset in this worker's affinity group (nil
	// when ungrouped). A sweep starts at a uniformly random index into
	// the slice, which is what makes the first probe uniform over
	// victims — indexing all n workers and skipping self would give the
	// right-hand neighbor a double share (see stealOnce).
	peers      []int
	groupPeers []int
	group      int

	// busyStart is the unix-nano start of the open busy interval, 0 when
	// idle. Only the worker writes it; Counters reads it to credit busy
	// time that has not been flushed yet.
	busyStart atomic.Int64
}

// NewRuntime starts a runtime with p workers (p < 1 is treated as 1)
// and default Options.
func NewRuntime(p int) *Runtime { return NewRuntimeOpts(p, Options{}) }

// NewRuntimeOpts starts a runtime with p workers and the given locality
// options.
func NewRuntimeOpts(p int, opt Options) *Runtime {
	if p < 1 {
		p = 1
	}
	if opt.Groups > p {
		opt.Groups = p
	}
	if opt.MailboxCap == 0 {
		opt.MailboxCap = DefaultMailboxCap
	}
	rt := &Runtime{opt: opt, stopped: make(chan struct{})}
	rt.workCond = sync.NewCond(&rt.mu)
	rt.quietCond = sync.NewCond(&rt.mu)
	rt.workers = make([]*Worker, p)
	grouped := opt.Groups >= 2
	if grouped {
		rt.groups = make([][]int, opt.Groups)
	}
	for i := range rt.workers {
		w := &Worker{rt: rt, id: i, rng: seedRand(uint64(i))}
		if grouped {
			w.group = i * opt.Groups / p // contiguous ranges, balanced ±1
			rt.groups[w.group] = append(rt.groups[w.group], i)
		}
		w.dq.init()
		rt.workers[i] = w
	}
	for _, w := range rt.workers {
		for j := 1; j < p; j++ {
			v := (w.id + j) % p
			w.peers = append(w.peers, v)
			if grouped && rt.workers[v].group == w.group {
				w.groupPeers = append(w.groupPeers, v)
			}
		}
	}
	rt.wg.Add(p)
	for _, w := range rt.workers {
		go w.run()
	}
	return rt
}

// AffinityFor maps an application-level locality domain — a shard
// index, a partition id — to the preferred worker for that domain's
// work, suitable as the affinity argument to Submit. Domains spread
// round-robin across affinity groups, and successive domains hitting
// the same group rotate through its members; on an ungrouped runtime
// the mapping is a plain domain % p. Negative domains get NoAffinity.
func (rt *Runtime) AffinityFor(domain int) int {
	if domain < 0 {
		return NoAffinity
	}
	if g := len(rt.groups); g >= 2 {
		members := rt.groups[domain%g]
		return members[(domain/g)%len(members)]
	}
	return domain % len(rt.workers)
}

// P returns the number of workers.
func (rt *Runtime) P() int { return len(rt.workers) }

// ID returns the worker's index in [0, P).
func (w *Worker) ID() int { return w.id }

// Fork schedules f as an independent task. w must be the worker the
// caller is currently running on, or nil when called from outside any
// worker (the task then enters the injection queue and is picked up by an
// idle worker).
func (rt *Runtime) Fork(w *Worker, f func(*Worker)) {
	if rt.stopping.Load() {
		panic("sched: Fork after Shutdown: " + ErrShutdown.Error())
	}
	rt.pending.Add(1)
	rt.enqueue(w, f, &rt.statsFor(w).spawns)
}

// Submit is Fork with a locality hint: affinity names the worker whose
// cache most likely holds f's data (use AffinityFor to derive it from a
// shard or partition id, or NoAffinity for none). A valid hint delivers
// f to that worker's bounded mailbox, which it drains right after its
// own deque — bypassing the injection queue, where any (usually cold)
// worker would pick it up. A full or disabled mailbox, an out-of-range
// hint, or NoAffinity all fall back to the plain Fork path, so Submit
// is never worse than Fork; the hint is advisory and a hinted task may
// still be taken by another worker as a last resort (see stealOnce),
// so affinity can never strand work behind a busy worker.
//
// w follows the Fork contract: the worker the caller is running on, or
// nil from outside the runtime.
func (rt *Runtime) Submit(w *Worker, f func(*Worker), affinity int) {
	if rt.stopping.Load() {
		panic("sched: Submit after Shutdown: " + ErrShutdown.Error())
	}
	if affinity >= 0 && affinity < len(rt.workers) && rt.opt.MailboxCap > 0 {
		rt.pending.Add(1)
		if rt.workers[affinity].mbox.put(f, rt.opt.MailboxCap) {
			rt.statsFor(w).spawns.Add(1)
			// Same wake protocol as a deque push: the task is published
			// (mbox.put is sequenced before this idlers read), and
			// workAvailable scans mailboxes, so a parked worker cannot
			// miss it.
			rt.wakeIdlers()
			return
		}
		rt.pending.Add(-1) // mailbox full: retire and take the Fork path
	}
	rt.Fork(w, f)
}

// enqueue puts f on w's deque (or the injection queue when w is nil) and
// wakes an idle worker if there is one. counter, if non-nil, is bumped.
//
// A nil-worker enqueue that races Shutdown (the submitter passed Fork's
// stopping check, or a Write requeued waiters, just as the workers were
// told to exit) is dropped instead of being stranded in the injection
// queue: no worker will ever drain it, and leaving it pending would make
// the runtime look non-quiescent forever. The drop retires the task's
// pending count so accounting stays consistent; the closure itself is
// abandoned, which is the documented fate of work outstanding at
// Shutdown.
func (rt *Runtime) enqueue(w *Worker, f task, counter *atomic.Int64) {
	if w != nil {
		if counter != nil {
			counter.Add(1)
		}
		depth := w.dq.push(f)
		if depth > w.stats.maxDeque.Load() {
			w.stats.maxDeque.Store(depth)
		}
	} else {
		rt.mu.Lock()
		if rt.stopping.Load() {
			rt.mu.Unlock()
			rt.taskDone()
			return
		}
		if counter != nil {
			counter.Add(1)
		}
		rt.inject = append(rt.inject, f)
		rt.injectLen.Store(int64(len(rt.inject)))
		rt.wakeGen++
		rt.workCond.Signal()
		rt.mu.Unlock()
		return
	}
	rt.wakeIdlers()
}

// wakeIdlers wakes parked workers after publishing a task somewhere
// workAvailable can see it (a deque, a mailbox). The idlers fast path
// makes the uncontended case a single atomic load; the Dekker-style
// pairing with park() — publish then read idlers, versus register
// idler then re-check workAvailable, all SC atomics — guarantees that
// if we skip the broadcast the parking worker's final re-check sees
// our task.
func (rt *Runtime) wakeIdlers() {
	if rt.idlers.Load() > 0 {
		rt.mu.Lock()
		rt.wakeGen++
		rt.workCond.Broadcast()
		rt.mu.Unlock()
	}
}

// statsFor returns the per-worker counter block, or the external block
// for nil.
func (rt *Runtime) statsFor(w *Worker) *wstats {
	if w != nil {
		return &w.stats
	}
	return &rt.extern
}

// Wait blocks until the runtime is quiescent: every forked task and every
// suspended continuation has run to completion. It is the "computation
// finished" barrier; call it from outside the workers only.
func (rt *Runtime) Wait() {
	rt.mu.Lock()
	for rt.pending.Load() != 0 && !rt.stopping.Load() {
		rt.quietCond.Wait()
	}
	rt.mu.Unlock()
}

// taskDone retires one pending closure and wakes Wait callers at zero.
func (rt *Runtime) taskDone() {
	if rt.pending.Add(-1) == 0 {
		rt.mu.Lock()
		rt.quietCond.Broadcast()
		rt.mu.Unlock()
	}
}

// Shutdown stops the workers and joins their goroutines. Outstanding work
// is abandoned, so call Wait first if completion matters. Shutdown is
// idempotent. After Shutdown: Fork and Spawn panic, Wait returns
// immediately, and Cell.ReadErr on a cell that will never be written
// returns ErrShutdown instead of blocking forever.
func (rt *Runtime) Shutdown() {
	if rt.stopping.Swap(true) {
		<-rt.stopped // another Shutdown won the swap; wait for it to finish
		return
	}
	rt.mu.Lock()
	rt.wakeGen++
	rt.workCond.Broadcast()
	rt.quietCond.Broadcast()
	rt.mu.Unlock()
	rt.wg.Wait()
	close(rt.stopped)
}

// Stopped reports whether Shutdown has been called.
func (rt *Runtime) Stopped() bool { return rt.stopping.Load() }

// Done returns a channel closed once Shutdown has completed (workers
// joined). External blockers select on it to avoid hanging on cells the
// runtime will never write.
func (rt *Runtime) Done() <-chan struct{} { return rt.stopped }

// run is the worker loop: pop local LIFO work, else poll the injection
// queue, else steal, else park.
func (w *Worker) run() {
	rt := w.rt
	defer rt.wg.Done()
	for {
		if rt.stopping.Load() {
			w.flushBusy()
			return
		}
		t := w.next()
		if t == nil {
			w.flushBusy()
			w.park()
			continue
		}
		if w.busyStart.Load() == 0 {
			w.busyStart.Store(time.Now().UnixNano())
		}
		t(w)
		w.stats.tasks.Add(1)
		rt.taskDone()
	}
}

// next returns the next task to run without blocking: local deque first
// (stack discipline), then the worker's own mailbox (affine deliveries,
// oldest first), then the injection queue, then one steal sweep.
//
// Deviation accounting (Herlihy & Liu, "Well-Structured Futures and
// Cache Locality"): a deviation is charged whenever a worker executes a
// task it neither spawned nor resumed from its own deque — the events
// whose count bounds the scheduler-induced cache misses. Steals charge
// one per stolen task (including each task of a steal-half batch) and
// so does an injection-queue pickup (the submitter was external; whoever
// drains it is running work whose data it did not produce). Draining
// the worker's OWN mailbox is deliberately not a deviation: the hint
// names this worker because it produced the task's data (that is the
// point of the mailbox path), so the pickup is locality-preserving by
// construction — while a foreign mailbox drain in the steal sweep
// charges one like any steal.
func (w *Worker) next() task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	if t := w.mbox.take(); t != nil {
		w.stats.mailboxHits.Add(1)
		return t
	}
	if t := w.rt.pollInject(); t != nil {
		w.stats.deviations.Add(1)
		return t
	}
	return w.stealOnce()
}

// pollInject takes the oldest externally submitted task, if any.
func (rt *Runtime) pollInject() task {
	if rt.injectLen.Load() == 0 {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.inject) == 0 {
		return nil
	}
	t := rt.inject[0]
	rt.inject[0] = nil // release the closure; the backing array outlives the re-slice
	rt.inject = rt.inject[1:]
	if len(rt.inject) == 0 {
		rt.inject = nil // let the drained backing array be collected
	}
	rt.injectLen.Store(int64(len(rt.inject)))
	return t
}

// stealOnce sweeps for work to take from other workers: first the
// deques of the thief's own affinity group (keep the work on the cores
// that share its cache domain), then every deque, then — last resort —
// other workers' mailboxes, so an affinity hint at a stalled worker can
// never strand a runnable task. Every task acquired here is a
// deviation.
//
// Each sweep starts at a uniformly random index into a precomputed
// victim slice that excludes the thief. The previous formulation drew
// off = rand % n over ALL n workers and skipped self inside the loop,
// which is biased: when the draw lands on the thief itself (probability
// 1/n) the first probe falls through to its right-hand neighbor, whose
// chance of being probed first is therefore 2/n while every other
// victim gets 1/n — a systematic preference invisible at p=2 but real
// at any p≥3, power of two or not. The victim-slice draw gives every
// victim exactly 1/(n−1). The draw itself uses the xorshift state's
// high bits via a 64×32→high-32 multiply (randN) instead of a modulus
// on the raw low bits, which for power-of-two n would expose xorshift's
// weakest bits.
func (w *Worker) stealOnce() task {
	if len(w.peers) == 0 {
		return nil
	}
	if t := w.sweepDeques(w.groupPeers); t != nil {
		return t
	}
	if t := w.sweepDeques(w.peers); t != nil {
		return t
	}
	return w.sweepMailboxes()
}

// sweepDeques probes each victim's deque once from a uniformly random
// start, claiming a single task — or, under Options.StealHalf, half the
// victim's deque: the extra tasks are respilled onto the thief's own
// deque (legal: the thief is its owner), so a subtree burst migrates in
// one claim.
func (w *Worker) sweepDeques(victims []int) task {
	n := len(victims)
	if n == 0 {
		return nil
	}
	off := int(w.randN(uint64(n)))
	for i := 0; i < n; i++ {
		v := w.rt.workers[victims[(off+i)%n]]
		if !w.rt.opt.StealHalf {
			if t := v.dq.steal(); t != nil {
				w.stats.steals.Add(1)
				w.stats.deviations.Add(1)
				v.stats.stolenFrom.Add(1)
				return t
			}
			continue
		}
		spilled := int64(0)
		t := v.dq.stealHalf(func(extra task) {
			depth := w.dq.push(extra)
			if depth > w.stats.maxDeque.Load() {
				w.stats.maxDeque.Store(depth)
			}
			spilled++
		})
		if t == nil {
			continue
		}
		w.stats.steals.Add(1 + spilled)
		w.stats.deviations.Add(1 + spilled)
		v.stats.stolenFrom.Add(1 + spilled)
		if spilled > 0 {
			// The spilled tasks are now stealable from our deque; let
			// other idle workers at them.
			w.rt.wakeIdlers()
		}
		return t
	}
	return nil
}

// sweepMailboxes drains one task from some other worker's mailbox, if
// any holds one. This violates the affinity hint on purpose: the hint
// is advisory, and leaving mailboxed work to wait out a busy (or
// wedged) affine worker while this one idles would trade throughput
// for locality at the worst exchange rate. Takes charge a deviation,
// exactly like a steal.
func (w *Worker) sweepMailboxes() task {
	n := len(w.peers)
	off := int(w.randN(uint64(n)))
	for i := 0; i < n; i++ {
		v := w.rt.workers[w.peers[(off+i)%n]]
		if t := v.mbox.take(); t != nil {
			w.stats.steals.Add(1)
			w.stats.deviations.Add(1)
			v.stats.stolenFrom.Add(1)
			return t
		}
	}
	return nil
}

// randN maps the next xorshift draw to [0, n) using the high 32 bits
// (Lemire's multiply-shift reduction, without the rejection step —
// victim counts are tiny, so the sub-1e-9 bias of skipping it is
// irrelevant, while a modulus on the low bits is not: xorshift's low
// bits are its weakest, and n is usually a power of two here).
func (w *Worker) randN(n uint64) uint64 {
	return ((w.nextRand() >> 32) * n) >> 32
}

// seedRand derives a worker's xorshift state from its id with a splitmix64
// finalizer. Zero is a fixed point of xorshift (a worker seeded 0 would
// sweep victims from a constant offset forever), so the id is offset by 1
// before mixing and the output is guarded against the one zero image.
func seedRand(id uint64) uint64 {
	x := id + 1
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// parkSpinRounds is how many scheduler yields an idle worker burns
// before it actually sleeps. On an oversubscribed (or single-CPU) box a
// producer may hold unstolen work without having had a chance to run the
// idlers>0 wake path yet; a yielded re-check costs almost nothing and
// keeps thieves engaged, where sleeping requires a producer-side
// broadcast to undo.
const parkSpinRounds = 4

// park blocks the worker until new work may exist. The protocol is a
// wake-generation eventcount: producers bump wakeGen under mu whenever
// they enqueue with idlers registered, so a task published between our
// final re-check and the cond wait cannot be missed.
func (w *Worker) park() {
	rt := w.rt
	for i := 0; i < parkSpinRounds; i++ {
		runtime.Gosched()
		if rt.workAvailable() || rt.stopping.Load() {
			return
		}
	}
	rt.idlers.Add(1)
	rt.mu.Lock()
	g := rt.wakeGen
	rt.mu.Unlock()
	if rt.workAvailable() || rt.stopping.Load() {
		rt.idlers.Add(-1)
		return
	}
	rt.mu.Lock()
	for rt.wakeGen == g && !rt.stopping.Load() && !rt.workAvailable() {
		rt.workCond.Wait()
	}
	rt.mu.Unlock()
	rt.idlers.Add(-1)
}

// workAvailable reports whether any queue looks non-empty. A stale true
// costs one futile sweep; a stale false is prevented by the wakeGen
// protocol.
//
// The mailbox scan is load-bearing for the parking protocol, not just a
// hint: a Submit landing in a mailbox between a worker's failed steal
// sweep and its park publishes the task ONLY here and in the producer's
// wakeIdlers check. If this scan missed mailboxes, a Submit that
// observed idlers == 0 (the worker was still spinning pre-registration)
// would broadcast nothing, the worker's pre-wait re-check would see no
// work, and the task would strand until an unrelated wakeup — the
// classic lost-wakeup window. TestLostWakeupSubmitVsPark pins this.
func (rt *Runtime) workAvailable() bool {
	if rt.injectLen.Load() > 0 {
		return true
	}
	for _, v := range rt.workers {
		if !v.dq.empty() || v.mbox.size() > 0 {
			return true
		}
	}
	return false
}

// flushBusy closes the current busy interval, accumulating it into the
// worker's busy-time counter.
func (w *Worker) flushBusy() {
	if s := w.busyStart.Load(); s != 0 {
		w.stats.busyNanos.Add(time.Now().UnixNano() - s)
		w.busyStart.Store(0)
	}
}

// Spawn is the future call on this runtime: it forks a task evaluating f
// and returns the cell its result will be written to. w follows the Fork
// contract (the current worker, or nil from outside).
func Spawn[T any](rt *Runtime, w *Worker, f func(*Worker) T) *Cell[T] {
	c := NewCell[T](rt)
	rt.Fork(w, func(w2 *Worker) { c.Write(w2, f(w2)) })
	return c
}

// ---- observability -------------------------------------------------------

// wstats is one padded block of event counters. Owners write their own
// block; Counters() reads all blocks atomically (each counter
// individually — the snapshot is not a consistent cut, which is fine for
// monitoring).
type wstats struct {
	spawns        atomic.Int64
	steals        atomic.Int64
	stolenFrom    atomic.Int64 // tasks thieves took from THIS worker's deque
	suspensions   atomic.Int64
	reactivations atomic.Int64
	maxDeque      atomic.Int64
	tasks         atomic.Int64
	busyNanos     atomic.Int64

	// Locality events: deviations per Herlihy & Liu (tasks acquired that
	// this worker neither spawned nor resumed from its own deque — every
	// steal, every injection pickup, every cross-worker reactivation)
	// and own-mailbox pickups (affine deliveries, the non-deviating
	// acquisitions the mailbox path exists to create).
	deviations  atomic.Int64
	mailboxHits atomic.Int64

	_ [48]byte // pad to a multiple of a cache line (TestWstatsPadded)
}

// Counters is a snapshot of the runtime's scheduling statistics.
type Counters struct {
	Spawns        int64 // tasks scheduled via Fork/Spawn
	Steals        int64 // successful steals
	Suspensions   int64 // touches of unwritten cells (continuation parked)
	Reactivations int64 // suspended continuations requeued by a write
	Tasks         int64 // task closures executed to completion
	MaxDeque      int64 // deepest any worker deque ever got
	// CellsShared counts cell allocations (NewCell, Spawn, DoneOn).
	// The dynamic budget lane of internal/verifycross checks it against
	// the static CellBudget manifest; pipebench reports it as the
	// "cells" column.
	CellsShared int64
	// CellsLinear and CellsForwarded always read 0: the runtime has one
	// cell type, counted in CellsShared.
	//
	// Deprecated: no effect; kept only because the benchmark harness names them.
	CellsLinear, CellsForwarded int64
	// Deviations counts task acquisitions that break locality, per
	// Herlihy & Liu's "Well-Structured Futures and Cache Locality": a
	// worker executing a task it neither spawned nor resumed from its
	// own deque. Steals (each task of a steal-half batch), injection
	// pickups, foreign-mailbox drains, and cross-worker reactivations
	// (a Write requeueing a continuation suspended by a different
	// worker) each charge one. The paper bounds scheduler-induced cache
	// misses by this count, which makes it the target the affinity
	// machinery (Submit hints, groups, mailboxes) minimizes.
	Deviations int64
	// MailboxHits counts tasks a worker drained from its OWN mailbox —
	// affine deliveries that bypassed the injection queue. These are
	// the acquisitions the locality policy turned from deviations into
	// local work.
	MailboxHits  int64
	BusyNanos    []int64
	WorkerTasks  []int64
	WorkerSteals []int64
	// WorkerStolenFrom counts, per worker, tasks that thieves took from
	// that worker's deque — the victim-side view of WorkerSteals. A healthy
	// runtime under load spreads theft across >1 victim.
	WorkerStolenFrom []int64
	// WorkerDeviations is the per-worker view of Deviations.
	WorkerDeviations []int64
}

// Counters samples every counter block. Safe to call at any time,
// including while the runtime is running.
func (rt *Runtime) Counters() Counters {
	var c Counters
	add := func(s *wstats) {
		c.Spawns += s.spawns.Load()
		c.Steals += s.steals.Load()
		c.Suspensions += s.suspensions.Load()
		c.Reactivations += s.reactivations.Load()
		c.Tasks += s.tasks.Load()
		c.Deviations += s.deviations.Load()
		c.MailboxHits += s.mailboxHits.Load()
		if m := s.maxDeque.Load(); m > c.MaxDeque {
			c.MaxDeque = m
		}
	}
	add(&rt.extern)
	c.CellsShared = rt.cellsShared.Load()
	now := time.Now().UnixNano()
	for _, w := range rt.workers {
		add(&w.stats)
		// Credit the open busy interval of a still-busy worker, so a
		// snapshot taken under saturation does not read near zero. A
		// concurrent flush can make this off by one interval — the
		// snapshot is monitoring-grade, not a consistent cut.
		busy := w.stats.busyNanos.Load()
		if s := w.busyStart.Load(); s != 0 && now > s {
			busy += now - s
		}
		c.BusyNanos = append(c.BusyNanos, busy)
		c.WorkerTasks = append(c.WorkerTasks, w.stats.tasks.Load())
		c.WorkerSteals = append(c.WorkerSteals, w.stats.steals.Load())
		c.WorkerStolenFrom = append(c.WorkerStolenFrom, w.stats.stolenFrom.Load())
		c.WorkerDeviations = append(c.WorkerDeviations, w.stats.deviations.Load())
	}
	return c
}

// Backlog reports the current (not high-water) queue depths: the
// pooled injection-queue-plus-mailbox length and the deepest worker
// deque right now. Mailboxed tasks count as injected backlog — they
// are externally submitted work awaiting a worker, just parked closer
// to a warm cache — so the serving layer's admission control sees the
// same pressure whichever path a submission took. Both numbers are
// monitoring-grade reads of concurrently mutated state.
func (rt *Runtime) Backlog() (inject int, maxDeque int) {
	inject = int(rt.injectLen.Load())
	for _, w := range rt.workers {
		inject += int(w.mbox.size())
		if d := int(w.dq.size()); d > maxDeque {
			maxDeque = d
		}
	}
	return inject, maxDeque
}

// Sub returns the per-field difference c - prev (slices element-wise; the
// max-depth field is taken from c). Use it to report one experiment's
// deltas on a long-lived runtime.
func (c Counters) Sub(prev Counters) Counters {
	out := c
	out.Spawns -= prev.Spawns
	out.Steals -= prev.Steals
	out.Suspensions -= prev.Suspensions
	out.Reactivations -= prev.Reactivations
	out.Tasks -= prev.Tasks
	out.CellsShared -= prev.CellsShared
	out.Deviations -= prev.Deviations
	out.MailboxHits -= prev.MailboxHits
	out.BusyNanos = subSlice(c.BusyNanos, prev.BusyNanos)
	out.WorkerTasks = subSlice(c.WorkerTasks, prev.WorkerTasks)
	out.WorkerSteals = subSlice(c.WorkerSteals, prev.WorkerSteals)
	out.WorkerStolenFrom = subSlice(c.WorkerStolenFrom, prev.WorkerStolenFrom)
	out.WorkerDeviations = subSlice(c.WorkerDeviations, prev.WorkerDeviations)
	return out
}

func subSlice(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i]
		if i < len(b) {
			out[i] -= b[i]
		}
	}
	return out
}

// String renders the aggregate counters on one line.
func (c Counters) String() string {
	return fmt.Sprintf("spawns=%d steals=%d susp=%d react=%d tasks=%d maxdeq=%d cells=%d dev=%d mbox=%d",
		c.Spawns, c.Steals, c.Suspensions, c.Reactivations, c.Tasks, c.MaxDeque,
		c.CellsShared, c.Deviations, c.MailboxHits)
}
