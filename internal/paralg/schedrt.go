package paralg

// SchedRuntime adapts the explicit work-stealing scheduler of package
// sched to the portable Runtime interface. The Ctx threaded through the
// algorithms is the current *sched.Worker (nil when entering from outside
// the pool), so every fork lands on the forking worker's own deque and
// every touch of an unwritten cell suspends just the continuation.

import "pipefut/internal/sched"

// SchedRuntime wraps a sched.Runtime. Create one with NewSchedRuntime and
// release its workers with Close when done.
type SchedRuntime struct {
	RT *sched.Runtime
}

// NewSchedRuntime starts a scheduler with p workers.
func NewSchedRuntime(p int) *SchedRuntime {
	return &SchedRuntime{RT: sched.NewRuntime(p)}
}

// NewSchedRuntimeOpts starts a scheduler with p workers and the given
// locality options (affinity groups, steal-half, mailbox bounds).
func NewSchedRuntimeOpts(p int, opt sched.Options) *SchedRuntime {
	return &SchedRuntime{RT: sched.NewRuntimeOpts(p, opt)}
}

// affineCtx is the Ctx produced by AffineCtx: entering an algorithm
// under it routes the ROOT fork through sched.Runtime.Submit with a
// preferred worker. Once the root task runs, the Ctx threaded onward is
// the real *sched.Worker, so descendants take the normal local-deque
// path — the hint steers where a pipeline stage starts, not every node.
// asWorker on an affineCtx yields nil (external), which is exactly the
// contract non-fork operations (Touch, Write) expect from a caller that
// is not on a worker.
type affineCtx struct {
	rt     *sched.Runtime
	worker int
}

// AffineCtx returns a Ctx carrying a locality hint: forks made under it
// are submitted to the preferred worker's mailbox (sched.Submit) rather
// than the global injection queue. Derive worker from a shard or
// partition id with s.RT.AffinityFor. The hint never changes results —
// only which worker's cache the work lands in; verifycross's affinity
// lane replays recorded DAGs through this path to prove it.
func (s *SchedRuntime) AffineCtx(worker int) Ctx {
	return affineCtx{rt: s.RT, worker: worker}
}

// Close drains outstanding work and stops the workers.
func (s *SchedRuntime) Close() {
	s.RT.Wait()
	s.RT.Shutdown()
}

// Name implements Runtime.
func (s *SchedRuntime) Name() string { return "sched" }

// Fork implements Runtime. A ctx made by AffineCtx routes the fork to
// the hinted worker's mailbox; any other ctx follows the usual contract
// (a *sched.Worker forks onto its own deque, nil injects globally).
func (s *SchedRuntime) Fork(ctx Ctx, f func(Ctx)) {
	if a, ok := ctx.(affineCtx); ok {
		a.rt.Submit(nil, func(w *sched.Worker) { f(w) }, a.worker)
		return
	}
	s.RT.Fork(asWorker(ctx), func(w *sched.Worker) { f(w) })
}

// asWorker recovers the scheduling context; a nil or foreign ctx means
// "not on a worker", which sched treats as an external submission.
func asWorker(ctx Ctx) *sched.Worker {
	w, _ := ctx.(*sched.Worker)
	return w
}

// schedCell adapts a sched.Cell to Cell. Like goCell it is a
// single-pointer struct, so converting it to the interface allocates
// nothing.
type schedCell[T any] struct{ c *sched.Cell[T] }

func newSchedCell[T any](s *SchedRuntime) Cell[T] { return schedCell[T]{sched.NewCell[T](s.RT)} }

// doneSchedCell counts the born-written cell in the runtime's
// CellsShared (sched.DoneOn), so per-runtime cell budgets include
// converter-built input trees.
func doneSchedCell[T any](s *SchedRuntime, v T) Cell[T] { return schedCell[T]{sched.DoneOn(s.RT, v)} }

func (s schedCell[T]) Write(ctx Ctx, v T) { s.c.Write(asWorker(ctx), v) }

// Touch calls k directly on a written cell: only a suspension needs the
// adapter closure from k to sched's continuation type.
func (s schedCell[T]) Touch(ctx Ctx, k func(Ctx, T)) {
	w := asWorker(ctx)
	if v, ok := s.c.TryRead(); ok {
		k(w, v)
		return
	}
	s.c.Touch(w, func(w *sched.Worker, v T) { k(w, v) })
}
func (s schedCell[T]) TryRead() (T, bool) { return s.c.TryRead() }
func (s schedCell[T]) Read() T            { return s.c.Read() }
