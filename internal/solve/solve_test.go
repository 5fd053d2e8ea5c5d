package solve

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pdn3d/internal/sparse"
)

// ladder builds the conductance matrix of an n-node resistor ladder where
// node 0 ties to the supply through gTie and neighbours couple through g.
func ladder(n int, g, gTie float64) *sparse.CSR {
	b := sparse.NewBuilder(n)
	b.AddToGround(0, gTie)
	for i := 0; i+1 < n; i++ {
		b.AddConductance(i, i+1, g)
	}
	return b.Compress()
}

// randomSPD builds a random well-conditioned conductance-style SPD matrix.
func randomSPD(n int, rng *rand.Rand) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddToGround(i, 0.1+rng.Float64())
	}
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddConductance(i, j, rng.Float64()+0.01)
		}
	}
	return b.Compress()
}

// defaultSolve builds the default method for a and runs one solve: the
// solve.New(a, Options{}).Solve(b, opt) every caller goes through.
func defaultSolve(a *sparse.CSR, b []float64, opt CGOptions) ([]float64, CGStats, error) {
	s, err := New(a, Options{})
	if err != nil {
		return nil, CGStats{}, err
	}
	return s.Solve(b, opt)
}

func TestCGSolvesLadderExactly(t *testing.T) {
	// Ladder with unit current injected at the far end: voltage drop
	// accumulates 1/g per segment plus 1/gTie at the tie.
	n := 10
	g, gTie := 2.0, 5.0
	a := ladder(n, g, gTie)
	rhs := make([]float64, n)
	rhs[n-1] = 1 // 1 A into the last node
	x, st, err := defaultSolve(a, rhs, CGOptions{})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !st.Converged {
		t.Fatal("CG did not report convergence")
	}
	for i := 0; i < n; i++ {
		want := 1/gTie + float64(i)/g
		if math.Abs(x[i]-want) > 1e-8 {
			t.Errorf("x[%d] = %.10f, want %.10f", i, x[i], want)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := ladder(5, 1, 1)
	x, st, err := defaultSolve(a, make([]float64, 5), CGOptions{})
	if err != nil || !st.Converged {
		t.Fatalf("zero rhs: err=%v converged=%v", err, st.Converged)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %g, want 0", i, v)
		}
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", st.Iterations)
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := ladder(5, 1, 1)
	if _, _, err := defaultSolve(a, make([]float64, 4), CGOptions{}); err == nil {
		t.Error("want dimension error")
	}
}

func TestCGRejectsSingular(t *testing.T) {
	// A floating ladder (no ground tie) is singular: the zero diagonal of
	// an isolated node must surface as the typed setup error.
	b := sparse.NewBuilder(3)
	b.AddConductance(0, 1, 1)
	// node 2 isolated: zero diagonal
	a := b.Compress()
	rhs := []float64{1, -1, 0}
	_, _, err := defaultSolve(a, rhs, CGOptions{MaxIter: 50})
	var dde *DegenerateDiagonalError
	if !errors.As(err, &dde) || dde.Node != 2 {
		t.Errorf("err = %v, want *DegenerateDiagonalError at node 2", err)
	}
}

func TestCGNotConvergedError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(50, rng)
	rhs := make([]float64, 50)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	_, _, err := defaultSolve(a, rhs, CGOptions{MaxIter: 1, Tol: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("err = %v, want ErrNotConverged", err)
	}
}

func TestCholeskyMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		a := randomSPD(n, rng)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		xc, err := c.Solve(rhs)
		if err != nil {
			t.Fatalf("Cholesky.Solve: %v", err)
		}
		xg, _, err := defaultSolve(a, rhs, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("CG: %v", err)
		}
		for i := range xc {
			if math.Abs(xc[i]-xg[i]) > 1e-6*(1+math.Abs(xc[i])) {
				t.Fatalf("trial %d: x[%d]: chol %g vs cg %g", trial, i, xc[i], xg[i])
			}
		}
	}
}

func TestCholeskyResidualIsTiny(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%30
		a := randomSPD(n, rng)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x, err := c.Solve(rhs)
		if err != nil {
			return false
		}
		ax := make([]float64, n)
		a.MulVec(ax, x)
		for i := range ax {
			if math.Abs(ax[i]-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	b := sparse.NewBuilder(2)
	b.Add(0, 0, -1)
	b.Add(1, 1, 1)
	if _, err := NewCholesky(b.Compress()); err == nil {
		t.Error("want error for indefinite matrix")
	}
}

func TestCholeskySolveDimensionMismatch(t *testing.T) {
	c, err := NewCholesky(ladder(4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(make([]float64, 3)); err == nil {
		t.Error("want dimension error")
	}
}

// Monotone physics property: adding extra conductance anywhere in a grounded
// network can only lower (or keep) every node voltage under the same loads.
func TestMoreMetalNeverRaisesVoltage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		base := sparse.NewBuilder(n)
		extra := sparse.NewBuilder(n)
		base.AddToGround(0, 1)
		extra.AddToGround(0, 1)
		for i := 0; i+1 < n; i++ {
			g := 0.5 + rng.Float64()
			base.AddConductance(i, i+1, g)
			extra.AddConductance(i, i+1, g)
		}
		// Strengthen one random link in the "extra" network.
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			extra.AddToGround(i, 1)
		} else {
			extra.AddConductance(i, j, 2)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.Float64() // non-negative loads
		}
		xb, _, err1 := defaultSolve(base.Compress(), rhs, CGOptions{Tol: 1e-12})
		xe, _, err2 := defaultSolve(extra.Compress(), rhs, CGOptions{Tol: 1e-12})
		if err1 != nil || err2 != nil {
			return false
		}
		for k := range xb {
			if xe[k] > xb[k]+1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPCGMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(60)
		a := randomSPD(n, rng)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		xp, sp, err := defaultSolve(a, rhs, CGOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("PCG: %v", err)
		}
		xc, sc, err := diagCG(a, rhs, CGOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("CG: %v", err)
		}
		for i := range xp {
			if math.Abs(xp[i]-xc[i]) > 1e-6*(1+math.Abs(xc[i])) {
				t.Fatalf("trial %d: x[%d]: pcg %g vs cg %g", trial, i, xp[i], xc[i])
			}
		}
		if !sp.Converged || !sc.Converged {
			t.Fatal("convergence flags")
		}
	}
}

func TestPCGConvergesFasterOnMesh(t *testing.T) {
	// A 2D grid Laplacian with one tie: the canonical PDN-like system.
	nx, ny := 40, 40
	b := sparse.NewBuilder(nx * ny)
	idx := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				b.AddConductance(idx(i, j), idx(i+1, j), 1)
			}
			if j+1 < ny {
				b.AddConductance(idx(i, j), idx(i, j+1), 1)
			}
		}
	}
	b.AddToGround(0, 10)
	a := b.Compress()
	rhs := make([]float64, a.N)
	rhs[a.N-1] = 0.1
	_, sCG, err := diagCG(a, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	_, sPCG, err := defaultSolve(a, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if sPCG.Iterations >= sCG.Iterations {
		t.Errorf("IC(0) PCG took %d iterations, diagonal CG %d — expected a reduction",
			sPCG.Iterations, sCG.Iterations)
	}
	t.Logf("mesh 40x40: CG %d iters, PCG %d iters", sCG.Iterations, sPCG.Iterations)
}

func TestICApplyIsSPDAction(t *testing.T) {
	// M⁻¹ must be symmetric positive definite: check x'M⁻¹x > 0 and
	// symmetry via random probes.
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(40, rng)
	pre, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 40)
	y := make([]float64, 40)
	mx := make([]float64, 40)
	my := make([]float64, 40)
	for trial := 0; trial < 20; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		pre.Apply(mx, x)
		pre.Apply(my, y)
		if dot(x, mx) <= 0 {
			t.Fatal("M^-1 not positive definite")
		}
		if math.Abs(dot(y, mx)-dot(x, my)) > 1e-8*(1+math.Abs(dot(y, mx))) {
			t.Fatal("M^-1 not symmetric")
		}
	}
}

// Cancellation is polled at iteration boundaries: a Cancel that trips
// after k iterations aborts with the cause wrapped and returns no vector,
// never a partial iterate; a nil / never-firing Cancel changes nothing.
func TestCGCancel(t *testing.T) {
	a := grid2D(20, 20)
	b := make([]float64, a.N)
	b[a.N-1] = 1

	cause := errors.New("deadline exceeded")
	calls := 0
	x, stats, err := defaultSolve(a, b, CGOptions{Cancel: func() error {
		calls++
		if calls > 3 {
			return cause
		}
		return nil
	}})
	if !errors.Is(err, cause) {
		t.Fatalf("canceled solve returned %v, want wrapped %v", err, cause)
	}
	if x != nil {
		t.Error("canceled solve returned a partial iterate; want nil")
	}
	if stats.Converged {
		t.Error("canceled solve claims convergence")
	}

	// A cancel hook that never fires must not perturb the solution.
	plain, _, err := defaultSolve(a, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hooked, _, err := defaultSolve(a, b, CGOptions{Cancel: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("cancel hook changed the solution at %d: %g vs %g", i, plain[i], hooked[i])
		}
	}
}
