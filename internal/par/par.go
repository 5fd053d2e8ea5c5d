// Package par provides the small concurrency primitives shared by the
// analysis stack: a bounded worker-pool sweep with first-error
// cancellation (design-space fan-out), and Cache, the one bounded,
// panic-safe singleflight cache behind every memoizing layer (served
// results, analyzers, LUTs, topologies, per-state results, and
// per-matrix solvers).
//
// No panic escapes a pool worker: Sweep returns a task's panic as that
// task's *PanicError. A panic on a worker goroutine would otherwise end
// the process.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pdn3d/internal/obs"
)

// PanicError is a recovered panic: the error a Sweep task that panicked
// returns, and the error every caller of a Cache flight whose fn panicked
// receives.
type PanicError struct {
	// Value is the value passed to panic (nil when a Cache fn called
	// runtime.Goexit).
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("par: panic: %v", e.Value) }

// asPanicError wraps a recovered value with the current stack.
func asPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Workers resolves a worker-count knob: values <= 0 select GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep runs fn(i) for every i in [0, n) on at most workers goroutines
// (<= 0 selects GOMAXPROCS) and returns the error of the lowest-indexed
// failing call. A call that panics fails with a *PanicError. After the
// first failure no new indices are started, so a sweep over independent
// design points cancels promptly; calls already in flight run to
// completion.
func Sweep(workers, n int, fn func(i int) error) error {
	return SweepWith(workers, n, nil, fn)
}

// SweepWith is Sweep with per-task instrumentation: task start/completion
// counts, queue wait, busy time, and worker utilization are recorded on m
// (nil disables instrumentation). Task counts are deterministic for
// error-free sweeps; after a failure the number of started tasks depends
// on cancellation timing.
func SweepWith(workers, n int, m *obs.SweepMetrics, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	run := m.Begin(workers)
	defer run.End()
	call := func(i int) (err error) {
		defer run.TaskStart()()
		defer func() {
			if v := recover(); v != nil {
				err = asPanicError(v)
			}
		}()
		return fn(i)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errIdx  = n
		firstBy error
		wg      sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := call(i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, firstBy = i, err
				}
				mu.Unlock()
				stopped.Store(true)
				return
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker() // the caller participates, bounding the pool at `workers`
	wg.Wait()
	return firstBy
}

// SweepCtx is SweepWith for context-aware tasks under a request trace:
// each task runs with a child span of ctx's active span (named name,
// annotated with its item index) installed in its context, so fan-out
// work nests under the request that spawned it. With no active span in
// ctx the per-task spans are nil and the sweep behaves exactly like
// SweepWith — tracing is pay-as-you-go.
func SweepCtx(ctx context.Context, workers, n int, m *obs.SweepMetrics, name string, fn func(ctx context.Context, i int) error) error {
	parent := obs.SpanFrom(ctx)
	return SweepWith(workers, n, m, func(i int) error {
		sp := parent.Child(name, obs.A("item", i))
		defer sp.End()
		return fn(obs.WithSpan(ctx, sp), i)
	})
}
