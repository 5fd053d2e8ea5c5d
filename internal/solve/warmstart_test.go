package solve

import (
	"errors"
	"math"
	"testing"

	"pdn3d/internal/obs"
)

// warmSystem is a mesh-like SPD system with a nontrivial solution.
func warmSystem(t *testing.T) ([]float64, []float64) {
	t.Helper()
	a := grid2D(20, 20)
	b := make([]float64, a.N)
	b[a.N-1] = 1
	b[a.N/2] = 0.5
	x, st, err := defaultSolve(a, b, CGOptions{Tol: 1e-10})
	if err != nil || !st.Converged {
		t.Fatalf("cold reference solve: %v (converged=%v)", err, st.Converged)
	}
	return b, x
}

// TestWarmStartZeroGuessMatchesColdBitwise: X0 set to the zero vector
// follows the exact arithmetic of the nil-X0 path (A·0 is exactly zero),
// so the two must agree bit for bit — the guard that adding warm-start
// support left the cold trajectory untouched.
func TestWarmStartZeroGuessMatchesColdBitwise(t *testing.T) {
	a := grid2D(20, 20)
	b := make([]float64, a.N)
	b[a.N-1] = 1
	cold, cst, err := defaultSolve(a, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	warm, wst, err := defaultSolve(a, b, CGOptions{Tol: 1e-10, X0: make([]float64, a.N)})
	if err != nil {
		t.Fatal(err)
	}
	if cst.Iterations != wst.Iterations {
		t.Errorf("iterations %d vs %d", cst.Iterations, wst.Iterations)
	}
	for i := range cold {
		if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
			t.Fatalf("x[%d] = %x vs %x", i, math.Float64bits(cold[i]), math.Float64bits(warm[i]))
		}
	}
}

// TestWarmStartExactGuessConvergesImmediately: seeding with the solution
// itself must finish in zero iterations.
func TestWarmStartExactGuessConvergesImmediately(t *testing.T) {
	a := grid2D(20, 20)
	b, x := warmSystem(t)
	got, st, err := defaultSolve(a, b, CGOptions{Tol: 1e-9, X0: x})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 0 {
		t.Errorf("exact guess: iterations=%d converged=%v, want 0/true", st.Iterations, st.Converged)
	}
	for i := range got {
		if got[i] != x[i] {
			t.Fatalf("exact guess mutated at %d: %g vs %g", i, got[i], x[i])
		}
	}
}

// TestWarmStartNearbyGuessConvergesFaster: a slightly perturbed solution
// must converge to the same tolerance in fewer iterations than cold, and
// must not mutate the caller's guess.
func TestWarmStartNearbyGuessConvergesFaster(t *testing.T) {
	a := grid2D(20, 20)
	b, x := warmSystem(t)
	guess := make([]float64, len(x))
	saved := make([]float64, len(x))
	for i := range x {
		guess[i] = x[i] * (1 + 1e-6*float64(i%7))
	}
	copy(saved, guess)
	_, cold, err := defaultSolve(a, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	got, warm, err := defaultSolve(a, b, CGOptions{Tol: 1e-10, X0: guess})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm solve did not converge")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm iterations %d not below cold %d", warm.Iterations, cold.Iterations)
	}
	for i := range guess {
		if guess[i] != saved[i] {
			t.Fatalf("X0 mutated at %d", i)
		}
	}
	// Same tolerance: the warm answer matches the cold trajectory's answer
	// to solver accuracy even though the float paths differ.
	coldX, _, err := defaultSolve(a, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-coldX[i]) > 1e-7 {
			t.Fatalf("warm/cold disagree at %d: %g vs %g", i, got[i], coldX[i])
		}
	}
}

// TestWarmStartLengthMismatch: a wrong-sized guess is an error, not a
// silent cold start.
func TestWarmStartLengthMismatch(t *testing.T) {
	a := grid2D(4, 4)
	b := make([]float64, a.N)
	b[0] = 1
	if _, _, err := defaultSolve(a, b, CGOptions{X0: make([]float64, a.N-1)}); err == nil {
		t.Error("want error for short X0")
	}
}

// TestWarmStartCounter: registry-built CG solvers count warm-started
// solves under solve.<method>.warm_starts.
func TestWarmStartCounter(t *testing.T) {
	reg := obs.NewRegistry()
	a := grid2D(8, 8)
	b := make([]float64, a.N)
	b[a.N-1] = 1
	s, err := New(a, Options{Method: MethodCGIC0, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := s.Solve(b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(b, CGOptions{X0: x}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["solve.cg-ic0.warm_starts"]; got != 1 {
		t.Errorf("warm_starts = %d, want 1 (one of two solves was seeded)", got)
	}
}

// TestWarmStartCancelPublishesNothing: a warm-started solve that is
// cancelled mid-flight must return a nil vector and leave the caller's
// X0 untouched — the solver never hands back a partially converged
// iterate that an upstream warm-start cache could mistake for a
// solution.
func TestWarmStartCancelPublishesNothing(t *testing.T) {
	a := grid2D(20, 20)
	b, x := warmSystem(t)
	guess := make([]float64, len(x))
	saved := make([]float64, len(x))
	for i := range x {
		guess[i] = x[i] * (1 + 1e-2*float64(i%5))
	}
	copy(saved, guess)
	stop := errors.New("request abandoned")
	calls := 0
	cancel := func() error {
		calls++
		if calls > 2 {
			return stop
		}
		return nil
	}
	got, _, err := defaultSolve(a, b, CGOptions{Tol: 1e-12, X0: guess, Cancel: cancel})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want wrapped cancellation cause", err)
	}
	if got != nil {
		t.Error("cancelled warm solve returned a partial iterate; want nil")
	}
	for i := range guess {
		if math.Float64bits(guess[i]) != math.Float64bits(saved[i]) {
			t.Fatalf("X0 mutated at %d during cancelled solve", i)
		}
	}
}
