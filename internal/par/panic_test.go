package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// rendezvous returns an entry gate that blocks until n callers have
// entered it. Tasks that pass it before panicking provably ran on n
// distinct goroutines of an n-worker pool, so at least one of the panics
// happens on a worker other than the caller — the case that would end
// the test binary if the pool did not recover it.
func rendezvous(n int) func() {
	var wg sync.WaitGroup
	wg.Add(n)
	return func() {
		wg.Done()
		wg.Wait()
	}
}

func wantPanicError(t *testing.T, err error, values ...string) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want a *PanicError carrying a stack", err)
	}
	for _, v := range values {
		if pe.Value == v {
			return
		}
	}
	t.Fatalf("panic value = %v, want one of %q", pe.Value, values)
}

func TestSweepWorkerPanicIsError(t *testing.T) {
	enter := rendezvous(2)
	err := Sweep(2, 2, func(i int) error {
		enter()
		panic(fmt.Sprintf("task %d", i))
	})
	// Both tasks panic; the lowest-indexed failure wins as for errors.
	wantPanicError(t, err, "task 0")
}

func TestSweepCtxWorkerPanicIsError(t *testing.T) {
	enter := rendezvous(2)
	err := SweepCtx(context.Background(), 2, 2, nil, "item", func(_ context.Context, i int) error {
		enter()
		panic(fmt.Sprintf("item %d", i))
	})
	wantPanicError(t, err, "item 0")
}

// A panic stops the sweep like any failure: no new indices start.
func TestSweepStopsAfterPanic(t *testing.T) {
	ran := 0
	err := Sweep(1, 10, func(i int) error {
		ran++
		if i == 3 {
			panic("boom")
		}
		return nil
	})
	wantPanicError(t, err, "boom")
	if ran != 4 {
		t.Fatalf("ran %d tasks, want 4 (stop after the panic at index 3)", ran)
	}
}
