package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestSweepVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		var hits = make([]atomic.Int64, n)
		if err := Sweep(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestSweepReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := Sweep(4, 50, func(i int) error {
		switch i {
		case 7:
			return errA
		case 30:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-indexed failure", err)
	}
}

func TestSweepCancelsAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := Sweep(2, 10000, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n == 10000 {
		t.Error("sweep ran every index despite an early error")
	}
}

func TestSweepZeroAndNegativeN(t *testing.T) {
	if err := Sweep(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	if err := Sweep(4, -3, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
