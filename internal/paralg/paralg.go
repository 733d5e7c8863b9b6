// Package paralg runs the paper's algorithms for real. Each algorithm is
// written once, as an RConfig method in continuation-passing style over
// write-once cells: every tree edge and list tail is a Cell, so partially
// built structures flow between pipeline stages exactly as in the cost
// model. Where the paper's code reads a cell, an RConfig method Touches
// it and continues in the callback.
//
// The same text runs on two runtimes (runtime.go). GoRuntime makes every
// fork a goroutine and every cell a future.Cell, so Go's scheduler plays
// the runtime of Section 4 and a touch of an unwritten cell blocks a
// goroutine. SchedRuntime runs on the work-stealing scheduler of package
// sched, where such a touch parks only the continuation.
//
// Unbounded forking would drown the asymptotics in task overhead, so
// RConfig carries a SpawnDepth: forks above that recursion depth become
// runtime tasks, deeper ones run inline in the caller. SpawnDepth is the
// grain-size ablation knob of the A-GRAIN experiment. GrainCutoff
// (grain.go) additionally collapses small treap subtrees into
// sequential chunks.
package paralg

// DefaultSpawnDepth spawns down to recursion depth 14 (≈16k-way
// parallelism at the frontier), a good default for the benchmarks and
// servers in this repository.
const DefaultSpawnDepth = 14

// DefaultConfig once held the blocking algorithms' default grain.
//
// Deprecated: use DefaultSpawnDepth; kept only because the benchmark harness names it.
var DefaultConfig = struct{ SpawnDepth int }{SpawnDepth: DefaultSpawnDepth}

// RConfig pairs a Runtime with the granularity knobs. Every algorithm of
// the package is an RConfig method; ctx arguments follow the Fork
// contract (the current worker context, or nil from outside the
// runtime).
type RConfig struct {
	R Runtime
	// SpawnDepth bounds parallel recursion: forks at recursion depth
	// < SpawnDepth become runtime tasks, deeper ones run inline in the
	// caller. 0 makes every algorithm sequential; 64 is effectively
	// unbounded for laptop-scale inputs.
	SpawnDepth int
	// Deprecated: no effect; kept only because the benchmark harness names them.
	Discipline CellDiscipline
	// GrainCutoff coarsens below-cutoff subtrees into chunk cells (see
	// grain.go): subtrees of at most GrainCutoff nodes are built and
	// combined by the plain sequential seqtreap code behind a single
	// born-written cell, instead of one scheduler cell per node. Zero or
	// negative disables coarsening. Every entry point that reads it
	// carries the verdict manifest's seqsafe proof; the others never
	// coarsen. internal/verifycross fails if a new entry point lacks
	// either (TestSeqSafeCoversEveryCoarsenedEntry).
	GrainCutoff int
}

// CellDiscipline once selected specialized cell variants per call.
//
// Deprecated: no effect; kept only because the benchmark harness names them.
type CellDiscipline int

// LinearCells is a CellDiscipline value.
//
// Deprecated: no effect; kept only because the benchmark harness names them.
const LinearCells CellDiscipline = 1

// fork runs f as a task when the depth is above the grain, else inline.
func (c RConfig) fork(ctx Ctx, d int, f func(Ctx)) {
	if d < c.SpawnDepth {
		c.R.Fork(ctx, f)
		return
	}
	f(ctx)
}
