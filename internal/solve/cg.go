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

// Column is one right-hand side of a lockstep solve (Solver.SolveCols)
// and, once the solve returns, its outcome: exactly what Solve returns
// for it.
type Column struct {
	// B is the right-hand side. The solve consumes it as the column's
	// residual, so on return it holds that residual, not b.
	B []float64
	// Opt tunes this column alone: its tolerance, iteration budget,
	// cancellation, span and recorder.
	Opt CGOptions

	// X, Stats and Err are the column's outcome, set by the solve.
	X     []float64
	Stats CGStats
	Err   error
}

// LockstepWidth is the number of columns one pass of the four-column
// SpMV and IC(0) kernels advances, and so the group size callers with
// many right-hand sides solve in. The IC(0) triangular solves are a
// serial dependency chain, bound by latency at paper sizes, so extra
// independent columns ride along almost free; an eight-wide IC(0) pass
// measured no faster than two four-wide ones.
const LockstepWidth = 4

// wideApplier is a preconditioner that also applies LockstepWidth
// columns in one pass over its factor: Apply4 sets z[j] = M⁻¹·r[j] for
// every lane j, bit-identical to Apply(z[j], r[j]).
type wideApplier interface {
	Apply4(z, r [LockstepWidth][]float64)
}

// cgState is one column's CG recurrence: its tolerance and budget, its
// vectors, and whether it is still iterating. r is the column's B; z
// holds M⁻¹·r and, between the SpMV and the residual update, A·p, since
// the two are never live at once. So a column holds four vectors: x, r,
// z and p.
type cgState struct {
	tol     float64
	maxIter int
	x, z, p []float64
	normB   float64
	rz      float64
	live    bool
}

// lockstep is one preconditioned-CG solve of k columns on one matrix.
// Each column does exactly the floating-point operations of a solve of
// its own, in the same order — the BLAS-1 steps are the per-column
// kernels of kernels.go — so its answer, stats and record do not depend
// on k or on the other columns. Only the SpMV and, when the
// preconditioner has one, the four-column apply walk the matrix or the
// factor once for up to four live columns.
type lockstep struct {
	a     *sparse.CSR
	pre   Preconditioner
	wide  wideApplier // pre's four-column apply, nil when it has none
	apply *obs.Timer  // times each preconditioner sweep; nil untimed
	cols  []Column
	st    []cgState
	// zero fills the spare lanes of a two- or three-column pass; every
	// kernel maps zero to zero, so it stays zero.
	zero []float64
}

// pcg is the preconditioned conjugate-gradient core behind every solver:
// it advances the columns in lockstep until each has converged, used its
// budget, been cancelled or met a non-positive p'Ap, and sets each
// column's X, Stats and Err. A frozen column stops taking part in the
// passes, commits its span annotation and recorder story at once, and
// never delays or changes another. The residual norm for the convergence
// check is accumulated in the same pass that updates the residual
// (axpyNormSq) rather than recomputed with a separate sweep. Each
// preconditioner sweep over live columns is one observation of apply
// (nil: untimed).
func pcg(a *sparse.CSR, pre Preconditioner, apply *obs.Timer, cols []Column) {
	l := &lockstep{a: a, pre: pre, apply: apply, cols: cols, st: make([]cgState, len(cols))}
	l.wide, _ = pre.(wideApplier)
	live := 0
	for j := range cols {
		if l.start(j) {
			live++
		}
	}
	l.sweep(false) // z = M⁻¹·r
	for j := range l.st {
		if c := &l.st[j]; c.live {
			copy(c.p, c.z)
			c.rz = dot(cols[j].B, c.z)
		}
	}
	for it := 0; live > 0; it++ {
		for j := range l.st {
			if !l.st[j].live {
				continue
			}
			if it >= l.st[j].maxIter {
				st := cols[j].Stats
				l.freeze(j, obs.TermMaxIter, fmt.Errorf("%w after %d iterations (residual %.3e, tol %.3e)",
					ErrNotConverged, st.Iterations, st.Residual, l.st[j].tol))
				live--
				continue
			}
			if cancel := cols[j].Opt.Cancel; cancel != nil {
				if err := cancel(); err != nil {
					l.freeze(j, obs.TermCancelled, fmt.Errorf("solve: canceled at iteration %d: %w", it, err))
					live--
				}
			}
		}
		l.sweep(true) // z = A·p
		for j := range l.st {
			c, col := &l.st[j], &cols[j]
			if !c.live {
				continue
			}
			pap := dot(c.p, c.z)
			if pap <= 0 {
				l.freeze(j, obs.TermError, fmt.Errorf("solve: p'Ap = %g <= 0 at iteration %d (matrix not SPD)", pap, it))
				live--
				continue
			}
			alpha := c.rz / pap
			axpy(c.x, alpha, c.p)
			rNormSq := axpyNormSq(col.B, -alpha, c.z)
			col.Stats.Iterations = it + 1
			col.Stats.Residual = math.Sqrt(rNormSq) / c.normB
			col.Opt.Rec.RecordIter(alpha, col.Stats.Residual)
			if col.Stats.Residual <= c.tol {
				col.Stats.Converged = true
				l.freeze(j, obs.TermConverged, nil)
				live--
			}
		}
		if live == 0 {
			break
		}
		l.sweep(false) // z = M⁻¹·r
		for j := range l.st {
			c, col := &l.st[j], &cols[j]
			if !c.live {
				continue
			}
			rzNew := dot(col.B, c.z)
			beta := rzNew / c.rz
			c.rz = rzNew
			xpby(c.p, beta, c.z)
			col.Opt.Rec.RecordBeta(beta)
		}
	}
}

// start sets column j up: it checks the right-hand side, begins the
// column's record, and allocates its vectors. A zero right-hand side is
// answered at once with x = 0. It reports whether the column iterates.
func (l *lockstep) start(j int) bool {
	n, col, c := l.a.N, &l.cols[j], &l.st[j]
	if len(col.B) != n {
		col.Err = fmt.Errorf("solve: rhs length %d != matrix dim %d", len(col.B), n)
		return false
	}
	c.tol, c.maxIter = col.Opt.Tol, col.Opt.MaxIter
	if c.tol <= 0 {
		c.tol = 1e-10
	}
	if c.maxIter <= 0 {
		c.maxIter = 10 * n
	}
	col.Opt.Rec.Begin(n)
	c.normB = norm2(col.B)
	c.x = make([]float64, n)
	if c.normB == 0 {
		col.Stats.Converged = true
		l.freeze(j, obs.TermConverged, nil)
		return false
	}
	c.z = make([]float64, n)
	c.p = make([]float64, n)
	c.live = true
	return true
}

// freeze ends column j's iteration with the given termination and error:
// it sets the column's outcome, annotates its span and finishes its
// record with the final story. A column that failed keeps no answer,
// except one that ran out of iterations, which keeps its last iterate.
func (l *lockstep) freeze(j int, term string, err error) {
	c, col := &l.st[j], &l.cols[j]
	c.live = false
	col.X, col.Err = c.x, err
	if err != nil && term != obs.TermMaxIter {
		col.X = nil
	}
	c.z, c.p = nil, nil
	if col.Opt.Span != nil {
		col.Opt.Span.Annotate(
			obs.A("iterations", col.Stats.Iterations),
			obs.A("residual", col.Stats.Residual),
			obs.A("converged", col.Stats.Converged))
	}
	col.Opt.Rec.Finish(col.Stats.Iterations, col.Stats.Residual, col.Stats.Converged, term)
}

// sweep runs one matrix or preconditioner pass over the live columns:
// z = A·p when spmv is set, z = M⁻¹·r otherwise. The SpMV and a
// preconditioner with a four-column apply take the live columns four to
// a pass, in column order; a pass of one column runs the one-column
// kernel, and a pass of two or three fills its spare lanes with the zero
// vector. Any other preconditioner applies column by column. A
// preconditioner sweep is timed as a whole under l.apply.
func (l *lockstep) sweep(spmv bool) {
	if !spmv {
		defer l.apply.Start()()
	}
	wide := spmv || l.wide != nil
	var out, in [LockstepWidth][]float64
	k := 0
	for j := range l.st {
		c := &l.st[j]
		if !c.live {
			continue
		}
		out[k], in[k] = c.z, l.cols[j].B
		if spmv {
			in[k] = c.p
		}
		if !wide {
			l.pre.Apply(out[0], in[0])
			continue
		}
		if k++; k == LockstepWidth {
			l.pass(spmv, out, in)
			k = 0
		}
	}
	switch {
	case k == 1 && spmv:
		l.a.MulVec(out[0], in[0])
	case k == 1:
		l.pre.Apply(out[0], in[0])
	case k > 1:
		if l.zero == nil {
			l.zero = make([]float64, l.a.N)
		}
		for ; k < LockstepWidth; k++ {
			out[k], in[k] = l.zero, l.zero
		}
		l.pass(spmv, out, in)
	}
}

// pass runs one four-column kernel.
func (l *lockstep) pass(spmv bool, out, in [LockstepWidth][]float64) {
	if spmv {
		mulVec4(l.a, out, in)
	} else {
		l.wide.Apply4(out, in)
	}
}
