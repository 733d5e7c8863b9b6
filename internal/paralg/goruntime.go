package paralg

import "pipefut/internal/future"

// GoRuntime runs forks as goroutines and cells as future.Cell. Touch
// blocks the calling goroutine on Read, so suspension costs a goroutine;
// that is exactly the cost the sched runtime removes.
type GoRuntime struct{}

// Name implements Runtime.
func (GoRuntime) Name() string { return "go" }

// Fork implements Runtime.
func (GoRuntime) Fork(_ Ctx, f func(Ctx)) { go f(nil) }

// goCell adapts a future.Cell to Cell. It is a single-pointer struct, so
// converting it to the interface allocates nothing.
type goCell[T any] struct{ c *future.Cell[T] }

func newGoCell[T any]() Cell[T]     { return goCell[T]{future.New[T]()} }
func doneGoCell[T any](v T) Cell[T] { return goCell[T]{future.Done(v)} }

func (g goCell[T]) Write(_ Ctx, v T)              { g.c.Write(v) }
func (g goCell[T]) Touch(ctx Ctx, k func(Ctx, T)) { k(ctx, g.c.Read()) }
func (g goCell[T]) TryRead() (T, bool)            { return g.c.TryRead() }
func (g goCell[T]) Read() T                       { return g.c.Read() }
