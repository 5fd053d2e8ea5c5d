// Package solve provides the linear solver behind the R-Mesh IR-drop
// engine, standing in for the paper's HSPICE runs: conjugate gradients on
// the sparse SPD conductance system, preconditioned by IC(0) (cg-ic0) or
// an algebraic-multigrid V-cycle (cg-amg), which MethodFor picks by system
// size. solve.New(a, opt) builds one through the registry in solver.go,
// and Solver.Solve is the only way to run it. A dense Cholesky factorization remains as AMG's
// coarse-level solve and as the exact oracle the differential harness
// checks every method against. A solve runs on its caller's goroutine:
// parallelism lives in the sweeps above it, and the BLAS-1 kernels sum in
// a fixed order (see kernels.go), so results are a pure function of the
// system.
package solve

import (
	"errors"
	"fmt"
	"math"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// CGOptions tunes an iterative solve.
type CGOptions struct {
	// Tol is the relative residual target ‖r‖/‖b‖. Zero selects 1e-10.
	Tol float64
	// MaxIter caps the iteration count. Zero selects 10·n.
	MaxIter int
	// Cancel, when non-nil, is polled once per iteration; a non-nil
	// return aborts the solve with that error wrapped. This is how
	// per-request context cancellation reaches the iteration loop:
	// callers set Cancel = ctx.Err so an abandoned request stops burning
	// CPU at the next iteration boundary instead of running to
	// convergence. Cancellation never changes the values a completed
	// solve returns.
	Cancel func() error
	// Span, when non-nil, is the request-trace span covering this solve:
	// the CG core annotates it with the iteration count, final relative
	// residual, and convergence outcome, so per-request traces attribute
	// latency to solver work. The caller owns the span's End. Tracing
	// never changes the values a solve returns.
	Span *obs.TraceSpan
	// Rec, when non-nil, is the flight recorder for this solve: the CG
	// core feeds it the per-iteration α/β coefficients and residual
	// trajectory and classifies the termination; the registry solvers
	// stamp the method and preconditioner identity. The caller owns the
	// recorder's Commit (enforced by the obscontract analyzer). Recording
	// never changes the values a solve returns, and nothing recorded is
	// wall-clock-derived — the captured shapes are identical for any
	// sweep worker count.
	Rec *obs.SolveRecorder
}

// CGStats reports how a solve went.
type CGStats struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// DegenerateDiagonalError reports a zero, negative, NaN, or missing
// diagonal entry in a conductance system — the signature of a degenerate
// mesh where a node has lost every path to a supply (e.g. 100% TSV
// failure). Solvers return it from setup instead of dividing by the bad
// diagonal and propagating NaN voltages.
type DegenerateDiagonalError struct {
	Node  int
	Value float64 // the stored diagonal; 0 when the entry is missing entirely
}

func (e *DegenerateDiagonalError) Error() string {
	if e.Value == 0 {
		return fmt.Sprintf("solve: degenerate diagonal at node %d: zero or missing entry (node has no conductance path)", e.Node)
	}
	return fmt.Sprintf("solve: degenerate diagonal at node %d: %g (matrix not SPD)", e.Node, e.Value)
}

// ErrNotConverged is wrapped in the error returned when CG exhausts its
// iteration budget above tolerance.
var ErrNotConverged = errors.New("solve: CG did not converge")

// Preconditioner approximates the action of A⁻¹: Apply computes
// z = M⁻¹·r. Implementations must be safe for concurrent Apply calls on
// distinct vectors after construction.
type Preconditioner interface {
	Apply(z, r []float64)
}

// invDiag extracts 1/diag(A). Every preconditioner setup runs it first:
// a zero, negative, NaN, or missing diagonal (CSR.Diag reports missing
// entries as 0) yields a typed *DegenerateDiagonalError naming the node
// instead of a divide-by-zero that would surface as NaN voltages much
// later. The !(d > 0) form also rejects NaN.
func invDiag(a *sparse.CSR) ([]float64, error) {
	invD := a.Diag()
	for i, d := range invD {
		if !(d > 0) {
			return nil, &DegenerateDiagonalError{Node: i, Value: d}
		}
		invD[i] = 1 / d
	}
	return invD, nil
}

// pcg is the shared preconditioned conjugate-gradient core behind every
// CG-family solver. The residual norm for the convergence check is
// accumulated in the same pass that updates the residual (axpyNormSq)
// rather than recomputed with a separate sweep.
func pcg(a *sparse.CSR, pre Preconditioner, b []float64, opt CGOptions) ([]float64, CGStats, error) {
	n := a.N
	if len(b) != n {
		return nil, CGStats{}, fmt.Errorf("solve: rhs length %d != matrix dim %d", len(b), n)
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	stats := CGStats{}
	termination := obs.TermError
	if opt.Rec != nil {
		opt.Rec.Begin(n)
		// Deferred for the same reason as the span annotation below: every
		// exit leaves the recorder carrying the true final story, and the
		// recorder upgrades maxiter to stagnated when the residual had
		// long stopped improving.
		defer func() {
			opt.Rec.Finish(stats.Iterations, stats.Residual, stats.Converged, termination)
		}()
	}
	if opt.Span != nil {
		// Deferred so every exit — converged, exhausted, canceled —
		// leaves the trace span carrying the true iteration story. The
		// annotated fields are a pure function of the system and the
		// right-hand side.
		defer func() {
			opt.Span.Annotate(
				obs.A("iterations", stats.Iterations),
				obs.A("residual", stats.Residual),
				obs.A("converged", stats.Converged))
		}()
	}

	normB := norm2(b)
	x := make([]float64, n)
	if normB == 0 {
		stats.Converged = true
		termination = obs.TermConverged
		return x, stats, nil
	}

	r := make([]float64, n)
	copy(r, b) // x = 0 so r = b
	z := make([]float64, n)
	pre.Apply(z, r)
	p := make([]float64, n)
	copy(p, z)
	ap := make([]float64, n)

	rz := dot(r, z)
	for it := 0; it < maxIter; it++ {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				termination = obs.TermCancelled
				return nil, stats, fmt.Errorf("solve: canceled at iteration %d: %w", it, err)
			}
		}
		a.MulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, stats, fmt.Errorf("solve: p'Ap = %g <= 0 at iteration %d (matrix not SPD)", pap, it)
		}
		alpha := rz / pap
		axpy(x, alpha, p)
		rNormSq := axpyNormSq(r, -alpha, ap)
		stats.Iterations = it + 1
		stats.Residual = math.Sqrt(rNormSq) / normB
		opt.Rec.RecordIter(alpha, stats.Residual)
		if stats.Residual <= tol {
			stats.Converged = true
			termination = obs.TermConverged
			return x, stats, nil
		}
		pre.Apply(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		xpby(p, beta, z)
		opt.Rec.RecordBeta(beta)
	}
	termination = obs.TermMaxIter
	return x, stats, fmt.Errorf("%w after %d iterations (residual %.3e, tol %.3e)",
		ErrNotConverged, stats.Iterations, stats.Residual, tol)
}
