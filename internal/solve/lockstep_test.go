package solve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// scalarPCG is the one-column preconditioned-CG loop the lockstep core
// replaced, kept verbatim apart from its name as the reference every
// column of a lockstep solve must match bit for bit: its answer, stats,
// error and flight record.
func scalarPCG(a *sparse.CSR, pre Preconditioner, b []float64, opt CGOptions) ([]float64, CGStats, error) {
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

// solveOne runs the lockstep core on one column, as Solver.Solve does.
func solveOne(a *sparse.CSR, pre Preconditioner, b []float64, opt CGOptions) ([]float64, CGStats, error) {
	cols := []Column{{B: slices.Clone(b), Opt: opt}}
	pcg(a, pre, nil, cols)
	return cols[0].X, cols[0].Stats, cols[0].Err
}

var errTestCancel = errors.New("test cancel")

// cancelAt returns a Cancel hook that fires at the given iteration: it
// is polled once per iteration, from iteration 0.
func cancelAt(it int) func() error {
	calls := 0
	return func() error {
		calls++
		if calls > it {
			return errTestCancel
		}
		return nil
	}
}

// columnRole is what one column of a lockstep test solve exercises.
type columnRole int

const (
	roleConverge columnRole = iota
	roleZero                // a zero right-hand side
	roleCancel              // Cancel fires at iteration 3
	roleMaxIter             // MaxIter 5 stops it short of convergence
	numRoles
)

// roleColumn is column j's right-hand side and options for a role. Its
// right-hand side is a function of j alone.
func roleColumn(n, j int, role columnRole) ([]float64, CGOptions) {
	b := make([]float64, n)
	if role != roleZero {
		rng := rand.New(rand.NewSource(int64(100 + j)))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
	}
	opt := CGOptions{Tol: 1e-10}
	switch role {
	case roleCancel:
		opt.Cancel = cancelAt(3)
	case roleMaxIter:
		opt.MaxIter = 5
	}
	return b, opt
}

// commitRecord commits rec and clears the fields only a Solver stamps
// (identity) or the buffer assigns (ID), which a bare scalarPCG reference
// leaves empty.
func commitRecord(rec *obs.SolveRecorder) obs.SolveRecord {
	r := rec.Commit()
	r.ID, r.Method, r.Precond = "", "", ""
	return r
}

// checkColumn compares one column of a lockstep solve with its one-column
// reference: x bit for bit, the stats, the error and the record.
func checkColumn(t *testing.T, name string, got Column, gotRec obs.SolveRecord, x []float64, st CGStats, err error, rec obs.SolveRecord) {
	t.Helper()
	if got.Stats != st {
		t.Errorf("%s: stats %+v, reference %+v", name, got.Stats, st)
	}
	if (got.Err == nil) != (err == nil) || (err != nil && got.Err.Error() != err.Error()) {
		t.Errorf("%s: error %v, reference %v", name, got.Err, err)
	}
	if (got.X == nil) != (x == nil) || len(got.X) != len(x) {
		t.Fatalf("%s: x has %d entries (nil %v), reference %d (nil %v)", name, len(got.X), got.X == nil, len(x), x == nil)
	}
	for i := range x {
		if math.Float64bits(got.X[i]) != math.Float64bits(x[i]) {
			t.Fatalf("%s: x[%d] = %x, reference %x", name, i, math.Float64bits(got.X[i]), math.Float64bits(x[i]))
		}
	}
	if !reflect.DeepEqual(gotRec, rec) {
		t.Errorf("%s: record differs from the reference:\n got %+v\nwant %+v", name, gotRec, rec)
	}
}

// Every column of a lockstep solve equals its one-column scalar solve bit
// for bit, for every k from 1 to 9 and every mix of a converging column,
// a zero right-hand side, a column cancelled at iteration 3 and one that
// runs out of iterations at 5: on the IC(0) path with and without
// instrumentation (which times each preconditioner sweep) and on the AMG
// path, which applies its columns one at a time.
func TestLockstepMatchesScalar(t *testing.T) {
	a := grid2D(20, 20)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"ic0", Options{Method: MethodCGIC0}},
		{"ic0-timed", Options{Method: MethodCGIC0, Obs: obs.NewRegistry()}},
		{"amg", Options{Method: MethodCGAMG}},
	} {
		s, err := New(a, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		pre := s.(*cgSolver).pre
		if _, wide := pre.(wideApplier); wide != (tc.name != "amg") {
			t.Fatalf("%s: preconditioner %T has a four-column apply: %v", tc.name, pre, wide)
		}
		for k := 1; k <= 9; k++ {
			for shift := 0; shift < int(numRoles); shift++ {
				buf := obs.NewSolveBuffer(16)
				cols := make([]Column, k)
				recs := make([]*obs.SolveRecorder, k)
				for j := range cols {
					cols[j].B, cols[j].Opt = roleColumn(a.N, j, columnRole((j+shift)%int(numRoles)))
					recs[j] = buf.StartSolveRecord()
					cols[j].Opt.Rec = recs[j]
				}
				s.SolveCols(cols)
				for j := range cols {
					b, opt := roleColumn(a.N, j, columnRole((j+shift)%int(numRoles)))
					rec := buf.StartSolveRecord()
					opt.Rec = rec
					x, st, err := scalarPCG(a, pre, b, opt)
					checkColumn(t, fmt.Sprintf("%s k=%d shift=%d column %d", tc.name, k, shift, j),
						cols[j], commitRecord(recs[j]), x, st, err, commitRecord(rec))
				}
			}
		}
	}
}

// Each column is its own solve: cancelling one column of four stops it
// with the cancellation and leaves the other three bit-identical to a
// group in which nothing was cancelled.
func TestLockstepCancelOneColumn(t *testing.T) {
	a := grid2D(30, 30)
	s, err := New(a, Options{Method: MethodCGIC0})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cancelled int) []Column {
		cols := make([]Column, 4)
		for j := range cols {
			cols[j].B, cols[j].Opt = roleColumn(a.N, j, roleConverge)
			if j == cancelled {
				cols[j].Opt.Cancel = cancelAt(3)
			}
		}
		s.SolveCols(cols)
		return cols
	}
	want, got := run(-1), run(2)
	if !errors.Is(got[2].Err, errTestCancel) || got[2].X != nil || got[2].Stats.Iterations != 3 {
		t.Errorf("cancelled column: err %v, x nil %v, %d iterations; want the cancellation after 3",
			got[2].Err, got[2].X == nil, got[2].Stats.Iterations)
	}
	for _, j := range []int{0, 1, 3} {
		if got[j].Err != nil || got[j].Stats != want[j].Stats || !slices.Equal(got[j].X, want[j].X) {
			t.Errorf("column %d changed when column 2 was cancelled: %+v vs %+v", j, got[j].Stats, want[j].Stats)
		}
	}
}

// Solve is the lockstep loop's one-column case, and leaves b as it was;
// SolveCols consumes each column's B as its residual.
func TestSolveLeavesRHS(t *testing.T) {
	a := grid2D(12, 12)
	s, err := New(a, Options{Method: MethodCGIC0})
	if err != nil {
		t.Fatal(err)
	}
	b, opt := roleColumn(a.N, 0, roleConverge)
	orig := slices.Clone(b)
	x, st, err := s.Solve(b, opt)
	if err != nil || !slices.Equal(b, orig) {
		t.Fatalf("Solve: err %v, b changed %v", err, !slices.Equal(b, orig))
	}
	wantX, wantSt, _ := scalarPCG(a, s.(*cgSolver).pre, orig, opt)
	if st != wantSt || !slices.Equal(x, wantX) {
		t.Errorf("Solve: %+v, reference %+v", st, wantSt)
	}
	cols := []Column{{B: slices.Clone(orig), Opt: opt}}
	s.SolveCols(cols)
	r := make([]float64, a.N)
	a.MulVec(r, cols[0].X)
	for i := range r {
		r[i] = orig[i] - r[i]
	}
	if norm2(r) > 1e-9*norm2(orig) || norm2(cols[0].B) > 1e-9*norm2(orig) {
		t.Errorf("B should hold the final residual: ‖b−Ax‖ %g, ‖B‖ %g", norm2(r), norm2(cols[0].B))
	}
}

// A mismatched right-hand side fails its own column, before its record
// begins, and no other.
func TestLockstepRHSLength(t *testing.T) {
	a := grid2D(8, 8)
	s, err := New(a, Options{Method: MethodCGIC0})
	if err != nil {
		t.Fatal(err)
	}
	good, opt := roleColumn(a.N, 0, roleConverge)
	cols := []Column{{B: make([]float64, a.N-1), Opt: opt}, {B: slices.Clone(good), Opt: opt}}
	s.SolveCols(cols)
	if cols[0].Err == nil || cols[0].X != nil || cols[0].Stats != (CGStats{}) {
		t.Errorf("short column: err %v, stats %+v", cols[0].Err, cols[0].Stats)
	}
	want, wantSt, _ := s.Solve(good, opt)
	if cols[1].Err != nil || cols[1].Stats != wantSt || !slices.Equal(cols[1].X, want) {
		t.Errorf("good column: err %v, stats %+v, want %+v", cols[1].Err, cols[1].Stats, wantSt)
	}
}

// The four-column kernels are bit-identical per lane to their one-column
// kernels, and a lane whose in and out are one zero vector leaves it
// zero.
func TestWideKernelsMatch(t *testing.T) {
	a := grid2D(40, 40)
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var in, out, want [LockstepWidth][]float64
	for j := 0; j < 3; j++ {
		in[j] = make([]float64, a.N)
		for i := range in[j] {
			in[j][i] = rng.NormFloat64()
		}
		out[j], want[j] = make([]float64, a.N), make([]float64, a.N)
	}
	zero := make([]float64, a.N)
	in[3], out[3] = zero, zero
	for _, k := range []struct {
		name string
		one  func(y, x []float64)
		wide func(y, x [LockstepWidth][]float64)
	}{
		{"spmv", a.MulVec, func(y, x [LockstepWidth][]float64) { mulVec4(a, y, x) }},
		{"ic0", ic.Apply, ic.Apply4},
	} {
		k.wide(out, in)
		for j := 0; j < 3; j++ {
			k.one(want[j], in[j])
			for i := range want[j] {
				if math.Float64bits(out[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("%s lane %d: entry %d = %x, want %x", k.name, j, i, math.Float64bits(out[j][i]), math.Float64bits(want[j][i]))
				}
			}
		}
		for i, v := range zero {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: the zero lane's entry %d became %g", k.name, i, v)
			}
		}
	}
}

// An instrumented solve times each preconditioner sweep over its live
// columns once, however many columns share the sweep and whether the
// preconditioner applies them four at a time (IC(0)) or one at a time
// (AMG): one sweep to start and one per iteration but the last.
func TestPrecondTimerCountsSweeps(t *testing.T) {
	a := grid2D(20, 20)
	for _, method := range []string{MethodCGIC0, MethodCGAMG} {
		for _, k := range []int{1, 6} {
			reg := obs.NewRegistry()
			s, err := New(a, Options{Method: method, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			cols := make([]Column, k)
			for j := range cols {
				cols[j].B, cols[j].Opt = roleColumn(a.N, j, roleConverge)
			}
			s.SolveCols(cols)
			most := 0
			for _, c := range cols {
				if c.Err != nil {
					t.Fatalf("%s k=%d: %v", method, k, c.Err)
				}
				most = max(most, c.Stats.Iterations)
			}
			if got := reg.Timer("solve." + method + ".precond_apply").Count(); got != int64(most) {
				t.Errorf("%s k=%d: %d preconditioner sweeps timed, want %d", method, k, got, most)
			}
		}
	}
}

// Concurrent k-column solves on one shared, instrumented solver each get
// their own one-column answers; run under -race this also checks that
// concurrent lockstep loops share nothing but the solver's metrics.
func TestLockstepConcurrent(t *testing.T) {
	a := grid2D(24, 24)
	s, err := New(a, Options{Method: MethodCGIC0, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	pre := s.(*cgSolver).pre
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols := make([]Column, 2+g)
			for j := range cols {
				cols[j].B, cols[j].Opt = roleColumn(a.N, g+j, columnRole((g+j)%int(numRoles)))
			}
			s.SolveCols(cols)
			for j := range cols {
				b, opt := roleColumn(a.N, g+j, columnRole((g+j)%int(numRoles)))
				x, st, err := scalarPCG(a, pre, b, opt)
				if cols[j].Stats != st || !slices.Equal(cols[j].X, x) || (cols[j].Err == nil) != (err == nil) {
					t.Errorf("goroutine %d column %d: %+v, reference %+v", g, j, cols[j].Stats, st)
				}
			}
		}()
	}
	wg.Wait()
}
