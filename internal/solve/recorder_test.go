package solve

import (
	"errors"
	"sync"
	"testing"

	"pdn3d/internal/obs"
)

// recordedSolve runs one solve with a fresh recorder and returns both
// stories — the stats the solver reported and the record it committed.
func recordedSolve(t *testing.T, method string, rhs []float64, opt CGOptions) (CGStats, obs.SolveRecord, error) {
	t.Helper()
	a := grid2D(16, 16)
	s, err := New(a, Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	buf := obs.NewSolveBuffer(4)
	rec := buf.StartSolveRecord()
	opt.Rec = rec
	_, stats, serr := s.Solve(rhs, opt)
	return stats, rec.Commit(), serr
}

func benchRHS(n int) []float64 {
	rhs := make([]float64, n)
	rhs[n-1] = 0.1
	rhs[n/2] = 0.05
	return rhs
}

func TestRecorderConvergedSolve(t *testing.T) {
	stats, rec, err := recordedSolve(t, MethodCGIC0, benchRHS(256), CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if rec.N != 256 || rec.Method != MethodCGIC0 || rec.Precond != precondIC0 {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Iterations != stats.Iterations || rec.Residual != stats.Residual || !rec.Converged {
		t.Fatalf("record disagrees with stats: rec=%+v stats=%+v", rec, stats)
	}
	if rec.Termination != obs.TermConverged {
		t.Fatalf("termination = %q, want converged", rec.Termination)
	}
	// A converged exit leaves one fewer β than α: the final iteration
	// returns at the convergence check before computing β.
	if len(rec.Alphas) != stats.Iterations || len(rec.Betas) != stats.Iterations-1 {
		t.Fatalf("coefficient shape: %d alphas, %d betas for %d iterations",
			len(rec.Alphas), len(rec.Betas), stats.Iterations)
	}
	if len(rec.Residuals) == 0 || rec.Residuals[len(rec.Residuals)-1] != stats.Residual {
		t.Fatalf("residual history %v does not end at final residual %g", rec.Residuals, stats.Residual)
	}
	if rec.CondEst <= 1 {
		t.Fatalf("cond_est = %g, want > 1 on a grid Laplacian", rec.CondEst)
	}
}

func TestRecorderMaxIterAndStagnation(t *testing.T) {
	stats, rec, err := recordedSolve(t, MethodCGIC0, benchRHS(256), CGOptions{Tol: 1e-30, MaxIter: 5})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if rec.Termination != obs.TermMaxIter {
		t.Fatalf("termination = %q, want maxiter (budget too small, still improving)", rec.Termination)
	}
	// A maxiter exit computes β after the final convergence check, so the
	// counts match.
	if len(rec.Alphas) != stats.Iterations || len(rec.Betas) != stats.Iterations {
		t.Fatalf("coefficient shape: %d alphas, %d betas for %d iterations",
			len(rec.Alphas), len(rec.Betas), stats.Iterations)
	}

}

// thrashPre is a deliberately broken preconditioner: it changes between
// iterations (boosting alternating coordinates by 1e6), which destroys
// CG's conjugacy and pins the residual oscillating at a floor it never
// improves past — the stall signature the stagnation classifier exists
// to name. A healthy SPD solve's recursive residual decreases to
// underflow and never plateaus, so this is the honest way to reach the
// stagnated exit through the real iteration loop.
type thrashPre struct{ k int }

func (f *thrashPre) Apply(z, r []float64) {
	f.k++
	for i := range z {
		z[i] = r[i] * (1 + 1e6*float64((i+f.k)%2))
	}
}

func TestRecorderStagnatedSolve(t *testing.T) {
	a := grid2D(16, 16)
	buf := obs.NewSolveBuffer(1)
	rec := buf.StartSolveRecord()
	_, _, err := solveOne(a, &thrashPre{}, benchRHS(a.N), CGOptions{Tol: 1e-10, MaxIter: 1000, Rec: rec})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if r := rec.Commit(); r.Termination != obs.TermStagnated {
		t.Fatalf("termination = %q, want stagnated (residual oscillating at its floor)", r.Termination)
	}
}

func TestRecorderCancelledSolve(t *testing.T) {
	cancelled := errors.New("ctx done")
	calls := 0
	_, rec, err := recordedSolve(t, MethodCGIC0, benchRHS(256), CGOptions{
		Cancel: func() error {
			calls++
			if calls > 3 {
				return cancelled
			}
			return nil
		},
	})
	if !errors.Is(err, cancelled) {
		t.Fatalf("err = %v, want wrapped cancellation", err)
	}
	if rec.Termination != obs.TermCancelled {
		t.Fatalf("termination = %q, want cancelled", rec.Termination)
	}
	if rec.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3 (cancelled at the 4th poll)", rec.Iterations)
	}
}

// TestRecorderShapeWorkerIndependent pins the determinism contract the
// serve-layer tests rely on: a solve's recorded trajectory does not depend
// on how many sweep workers share its solver. Eight concurrent solves on
// one solver record exactly what a lone solve does.
func TestRecorderShapeWorkerIndependent(t *testing.T) {
	a := grid2D(24, 24)
	s, err := New(a, Options{Method: MethodCGAMG})
	if err != nil {
		t.Fatal(err)
	}
	run := func() obs.SolveRecord {
		buf := obs.NewSolveBuffer(1)
		rec := buf.StartSolveRecord()
		if _, _, err := s.Solve(benchRHS(a.N), CGOptions{Tol: 1e-10, Rec: rec}); err != nil {
			t.Error(err)
		}
		return rec.Commit()
	}
	r1 := run()
	shared := make([]obs.SolveRecord, 8)
	var wg sync.WaitGroup
	for w := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[w] = run()
		}()
	}
	wg.Wait()
	for w, r8 := range shared {
		if r1.Iterations != r8.Iterations || r1.Residual != r8.Residual || r1.CondEst != r8.CondEst {
			t.Fatalf("worker %d: scalar shape differs from a lone solve:\n1: %+v\n8: %+v", w, r1, r8)
		}
		for name, pair := range map[string][2][]float64{
			"residuals": {r1.Residuals, r8.Residuals},
			"alphas":    {r1.Alphas, r8.Alphas},
			"betas":     {r1.Betas, r8.Betas},
		} {
			a, b := pair[0], pair[1]
			if len(a) != len(b) {
				t.Fatalf("worker %d: %s length differs from a lone solve: %d vs %d", w, name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("worker %d: %s[%d] differs from a lone solve: %g vs %g", w, name, i, a[i], b[i])
				}
			}
		}
	}
}
