package solve

import (
	"errors"
	"math"
	"testing"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// AMG on a mesh-sized grid must agree with the dense reference and
// converge in far fewer iterations than diagonally preconditioned CG.
func TestAMGSolvesGridAccurately(t *testing.T) {
	a := grid2D(40, 40)
	b := make([]float64, a.N)
	b[0] = 1
	b[a.N-1] = -0.5
	b[a.N/2] = 0.25

	s, err := New(a, Options{Method: MethodCGAMG})
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := s.Solve(b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("cg-amg did not converge")
	}

	ax := make([]float64, a.N)
	a.MulVec(ax, x)
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > 1e-9 {
			t.Fatalf("residual entry %d = %g too large", i, d)
		}
	}

	_, jst, err := diagCG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations*2 > jst.Iterations {
		t.Errorf("cg-amg took %d iterations vs diagonal CG %d; multigrid should cut the count at least 2x",
			st.Iterations, jst.Iterations)
	}
}

// The hierarchy must actually coarsen on systems above the dense cutoff,
// and building it twice must give identical aggregates (determinism).
func TestAMGHierarchyDeterministic(t *testing.T) {
	a := grid2D(50, 30) // 1500 nodes > amgCoarseMax
	m1, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Levels() == 0 {
		t.Fatalf("no coarsening on n=%d (coarse cutoff %d)", a.N, amgCoarseMax)
	}
	if m1.CoarseN() > amgCoarseMax {
		t.Fatalf("coarse level n=%d above cutoff %d", m1.CoarseN(), amgCoarseMax)
	}
	m2, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Levels() != m2.Levels() || m1.CoarseN() != m2.CoarseN() {
		t.Fatalf("hierarchy shape differs across builds: %d/%d vs %d/%d",
			m1.Levels(), m1.CoarseN(), m2.Levels(), m2.CoarseN())
	}
	for l := range m1.levels {
		for i, v := range m1.levels[l].agg {
			if m2.levels[l].agg[i] != v {
				t.Fatalf("level %d aggregate of node %d differs: %d vs %d", l, i, m2.levels[l].agg[i], v)
			}
		}
		for i, v := range m1.levels[l].a.Val {
			if math.Float64bits(m2.levels[l].a.Val[i]) != math.Float64bits(v) {
				t.Fatalf("level %d operator value %d differs bitwise", l, i)
			}
		}
	}
}

// One V-cycle is a fixed linear operator; CG additionally requires it to
// be symmetric: <M⁻¹u, v> == <u, M⁻¹v> for all u, v.
func TestAMGApplyIsSymmetricOperator(t *testing.T) {
	a := grid2D(30, 25)
	m, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	u := make([]float64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		u[i] = math.Sin(float64(3*i + 1))
		v[i] = math.Cos(float64(2*i + 5))
	}
	mu := make([]float64, n)
	mv := make([]float64, n)
	m.Apply(mu, u)
	m.Apply(mv, v)
	lhs := dot(mu, v)
	rhs := dot(u, mv)
	if d := math.Abs(lhs - rhs); d > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("V-cycle not symmetric: <Mu,v>=%g vs <u,Mv>=%g", lhs, rhs)
	}
	// And reapplying on the same input must reproduce the result exactly
	// (pooled scratch must not leak state).
	mu2 := make([]float64, n)
	m.Apply(mu2, u)
	for i := range mu {
		if math.Float64bits(mu[i]) != math.Float64bits(mu2[i]) {
			t.Fatalf("Apply not reproducible at %d", i)
		}
	}
}

// degenerateMatrix returns a 6-node path system where node idx carries
// the given diagonal value (bypassing Builder's zero-skip via direct CSR
// construction when needed).
func degenerateMatrix(idx int, diag float64) *sparse.CSR {
	b := sparse.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddConductance(i, i+1, 1)
	}
	b.AddToGround(0, 2)
	m := b.Compress()
	for q := m.RowPtr[idx]; q < m.RowPtr[idx+1]; q++ {
		if int(m.Col[q]) == idx {
			m.Val[q] = diag
		}
	}
	return m
}

// A zero, negative, or NaN diagonal must yield the typed error naming the
// node — never a silent 1/0 or 1/NaN that turns into NaN voltages, and
// never an untyped IC(0) pivot error. The NaN case is the regression: the
// pre-fix check (d <= 0) let NaN through.
func TestDegenerateDiagonalTypedError(t *testing.T) {
	for _, tc := range []struct {
		name string
		diag float64
	}{
		{"zero", 0},
		{"negative", -3},
		{"nan", math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const node = 3
			a := degenerateMatrix(node, tc.diag)
			for _, build := range []struct {
				name string
				fn   func() error
			}{
				{"ic0", func() error { _, err := NewIC(a); return err }},
				{"amg", func() error { _, err := NewAMG(a); return err }},
			} {
				err := build.fn()
				if err == nil {
					t.Fatalf("%s: degenerate diagonal accepted", build.name)
				}
				var dde *DegenerateDiagonalError
				if !errors.As(err, &dde) {
					t.Fatalf("%s: want *DegenerateDiagonalError, got %v", build.name, err)
				}
				if dde.Node != node {
					t.Errorf("%s: error names node %d, want %d", build.name, dde.Node, node)
				}
			}
		})
	}
}

// A matrix with a structurally missing diagonal entry (CSR.Diag reports
// 0) must be rejected the same way.
func TestMissingDiagonalTypedError(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(2, 2, 2)
	b.Add(0, 2, -1)
	b.Add(2, 0, -1)
	// Node 1 never receives a diagonal stamp: a floating node, as an
	// imported SPICE deck with a current source into an unconnected node
	// would produce.
	a := b.Compress()
	for _, build := range []struct {
		name string
		fn   func() error
	}{
		{"ic0", func() error { _, err := NewIC(a); return err }},
		{"amg", func() error { _, err := NewAMG(a); return err }},
	} {
		err := build.fn()
		var dde *DegenerateDiagonalError
		if !errors.As(err, &dde) {
			t.Fatalf("%s: want *DegenerateDiagonalError, got %v", build.name, err)
		}
		if dde.Node != 1 || dde.Value != 0 {
			t.Errorf("%s: error = %+v, want node 1 value 0", build.name, dde)
		}
	}
}

// Each registry solver stamps its preconditioner into the solve record
// and the trace span, on every solve.
func TestPrecondReportedInStats(t *testing.T) {
	a := grid2D(12, 12)
	b := make([]float64, a.N)
	b[7] = 1
	for _, tc := range []struct{ method, precond string }{
		{MethodCGIC0, precondIC0},
		{MethodCGAMG, precondAMG},
	} {
		s, err := New(a, Options{Method: tc.method})
		if err != nil {
			t.Fatal(err)
		}
		buf := obs.NewSolveBuffer(1)
		rec := buf.StartSolveRecord()
		tr := obs.NewTrace("")
		sp := tr.Span("solve")
		_, _, err = s.Solve(b, CGOptions{Tol: 1e-10, Rec: rec, Span: sp})
		sp.End()
		r := rec.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if r.Method != tc.method || r.Precond != tc.precond {
			t.Errorf("%s: record names %s/%s, want precond %s", tc.method, r.Method, r.Precond, tc.precond)
		}
		if got := tr.Snapshot().Spans[0].Attrs["precond"]; got != tc.precond {
			t.Errorf("%s: span precond = %q, want %q", tc.method, got, tc.precond)
		}
	}
}

// AMG.Apply runs in the CG loop once per iteration: after the pooled
// scratch is warm, a V-cycle (coarse dense solve included) allocates
// nothing.
func TestAMGApplyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	a := grid2D(32, 32)
	m, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	z, r := make([]float64, a.N), benchRHS(a.N)
	if allocs := testing.AllocsPerRun(100, func() { m.Apply(z, r) }); allocs != 0 {
		t.Errorf("AMG.Apply allocates %.0f times per call, want 0", allocs)
	}
}

// denseSolver puts the dense oracle behind the Solver interface, so a
// test can run an exact solve through Reordered.
type denseSolver struct{ c *Cholesky }

func (denseSolver) Method() string { return "dense" }

func (d denseSolver) Solve(b []float64, _ CGOptions) ([]float64, CGStats, error) {
	x, err := d.c.Solve(b)
	return x, CGStats{Converged: err == nil}, err
}

// Reordered must hand back solutions (and accept warm starts) in the
// original node ordering while the inner solver runs on the permuted
// system.
func TestReorderedSolverRoundTrip(t *testing.T) {
	b := sparse.NewBuilder(30 * 20)
	idx := func(i, j int) int { return j*30 + i }
	for j := 0; j < 20; j++ {
		for i := 0; i < 30; i++ {
			if i+1 < 30 {
				b.AddConductance(idx(i, j), idx(i+1, j), 1+0.1*float64(i))
			}
			if j+1 < 20 {
				b.AddConductance(idx(i, j), idx(i, j+1), 2)
			}
		}
	}
	b.AddToGround(5, 4)
	p := b.Freeze()
	a := p.NewCSR()
	p.Scatter(a.Val, b.RawVals())
	perm := p.Permutation()
	pa := a.Permute(perm)

	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.7)
	}

	direct, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}

	inner, err := NewCholesky(pa)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Reordered(denseSolver{inner}, perm).Solve(rhs, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("reordered solve not converged")
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g vs unpermuted %g", i, got[i], want[i])
		}
	}

	// Warm start passes through the permutation: seeding with the exact
	// solution must converge instantly on an iterative method.
	innerCG, err := New(pa, Options{Method: MethodCGAMG})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err = Reordered(innerCG, perm).Solve(rhs, CGOptions{Tol: 1e-9, X0: want})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Errorf("exact warm start took %d iterations, want 0", st.Iterations)
	}
}
