package solve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdn3d/internal/sparse"
)

// grid2D builds the 2D grid Laplacian with one supply tie — the canonical
// PDN-like SPD system used across the solver tests and benchmarks.
func grid2D(nx, ny int) *sparse.CSR {
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
	return b.Compress()
}

func TestRegistryListsBuiltins(t *testing.T) {
	if got, want := Methods(), []string{MethodCGAMG, MethodCGIC0}; !slices.Equal(got, want) {
		t.Errorf("Methods() = %v, want %v", got, want)
	}
}

func TestNewRejectsUnknownMethod(t *testing.T) {
	if _, err := New(ladder(4, 1, 1), Options{Method: "hspice"}); err == nil {
		t.Error("want error for unknown method")
	}
}

func TestNewDefaultsToIC0(t *testing.T) {
	s, err := New(ladder(8, 1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Method() != MethodCGIC0 {
		t.Errorf("default method = %q, want %q", s.Method(), MethodCGIC0)
	}
}

// MethodFor keeps a named method and resolves an empty one by size:
// cg-ic0 below AMGMinNodes, cg-amg from it up. New follows the rule.
func TestMethodForSizeRule(t *testing.T) {
	for _, tc := range []struct {
		method string
		n      int
		want   string
	}{
		{"", 1, MethodCGIC0},
		{"", AMGMinNodes - 1, MethodCGIC0},
		{"", AMGMinNodes, MethodCGAMG},
		{"", 10 * AMGMinNodes, MethodCGAMG},
		{MethodCGAMG, 1, MethodCGAMG},
		{MethodCGIC0, AMGMinNodes, MethodCGIC0},
	} {
		if got := MethodFor(tc.method, tc.n); got != tc.want {
			t.Errorf("MethodFor(%q, %d) = %q, want %q", tc.method, tc.n, got, tc.want)
		}
	}
	nx := int(math.Ceil(math.Sqrt(AMGMinNodes)))
	s, err := New(grid2D(nx, nx), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Method() != MethodCGAMG {
		t.Errorf("New on %d nodes picked %q, want %q", nx*nx, s.Method(), MethodCGAMG)
	}
}

// All registered methods must agree on the same system within the
// validation tolerance used by internal/irdrop (dense cross-checks pass at
// <1e-7 V); this is the solver-level half of that guarantee.
func TestAllMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomSPD(60, rng)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		s, err := New(a, Options{Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		x, st, err := s.Solve(b, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !st.Converged {
			t.Errorf("%s: not converged", m)
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
				t.Fatalf("%s: x[%d] = %g vs reference %g", m, i, x[i], ref[i])
			}
		}
	}
}

// SolversAreReusable: one factorization, many right-hand sides.
func TestSolverReusableAcrossRHS(t *testing.T) {
	a := grid2D(20, 20)
	s, err := New(a, Options{Method: MethodCGIC0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, _, err := s.Solve(b, CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		ax := make([]float64, a.N)
		a.MulVec(ax, x)
		for i := range ax {
			if math.Abs(ax[i]-b[i]) > 1e-6 {
				t.Fatalf("trial %d: residual %g at %d", trial, ax[i]-b[i], i)
			}
		}
	}
}

// diagPre is the diagonal preconditioner M = diag(A). No registered method
// uses it; it stays in the tests as the textbook reference the fused-norm
// oracle and the κ pin are written against.
type diagPre struct{ invD []float64 }

func (p diagPre) Apply(z, r []float64) { hadamard(z, p.invD, r) }

// diagCG runs the CG core with diagonal preconditioning on the serial
// kernels.
func diagCG(a *sparse.CSR, b []float64, opt CGOptions) ([]float64, CGStats, error) {
	invD, err := invDiag(a)
	if err != nil {
		return nil, CGStats{}, err
	}
	return solveOne(a, diagPre{invD}, b, opt)
}

// hadamard computes z = d .* r elementwise.
func hadamard(z, d, r []float64) {
	for i := range z {
		z[i] = d[i] * r[i]
	}
}

// referenceCG is the pre-refactor loop with its separate norm2(r)
// recomputation each iteration, kept verbatim as the regression oracle for
// the fused residual-norm tracking.
func referenceCG(a *sparse.CSR, b []float64, opt CGOptions) ([]float64, CGStats, error) {
	n := a.N
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	normB := norm2(b)
	x := make([]float64, n)
	if normB == 0 {
		return x, CGStats{Converged: true}, nil
	}
	invD := a.Diag()
	for i, d := range invD {
		invD[i] = 1 / d
	}
	r := make([]float64, n)
	copy(r, b)
	z := make([]float64, n)
	hadamard(z, invD, r)
	p := make([]float64, n)
	copy(p, z)
	ap := make([]float64, n)
	rz := dot(r, z)
	stats := CGStats{}
	for k := 0; k < maxIter; k++ {
		a.MulVec(ap, p)
		pap := dot(p, ap)
		alpha := rz / pap
		axpy(x, alpha, p)
		axpy(r, -alpha, ap)
		stats.Iterations = k + 1
		stats.Residual = norm2(r) / normB
		if stats.Residual <= tol {
			stats.Converged = true
			return x, stats, nil
		}
		hadamard(z, invD, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, stats, ErrNotConverged
}

// The fused residual-norm update must not change convergence behavior at
// all: same iteration count, same final residual, same solution bits.
func TestFusedNormIdenticalConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(120)
		a := randomSPD(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, wantSt, errW := referenceCG(a, b, CGOptions{Tol: 1e-10})
		got, gotSt, errG := diagCG(a, b, CGOptions{Tol: 1e-10})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errW, errG)
		}
		if wantSt.Iterations != gotSt.Iterations {
			t.Fatalf("trial %d: iterations %d vs reference %d", trial, gotSt.Iterations, wantSt.Iterations)
		}
		if wantSt.Residual != gotSt.Residual {
			t.Fatalf("trial %d: residual %g vs reference %g (must be identical)", trial, gotSt.Residual, wantSt.Residual)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: x[%d] = %g vs reference %g (must be bit-identical)", trial, i, got[i], want[i])
			}
		}
	}
	// Also on the grid system, where CG runs many iterations.
	a := grid2D(40, 40)
	b := make([]float64, a.N)
	b[a.N-1] = 0.1
	_, wantSt, _ := referenceCG(a, b, CGOptions{Tol: 1e-10})
	_, gotSt, _ := diagCG(a, b, CGOptions{Tol: 1e-10})
	if wantSt != gotSt {
		t.Fatalf("grid stats %+v vs reference %+v", gotSt, wantSt)
	}
}

// The CG reductions sum in one fixed order: a plain loop below 8,192
// entries, and from there up 4,096-entry partial sums added in block
// order, allocating nothing. Every pinned answer was computed in that
// order, so the reference spells out its numbers rather than reading
// kernelMinN and kernelBlock: moving either moves the answers' bits.
func TestReductionsSumInBlockOrder(t *testing.T) {
	const minN, block = 8192, 4096
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{minN - 1, minN, 3*block + 17} {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			b[i] = rng.NormFloat64()
		}
		sum := func(lo, hi int, f func(i int) float64) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			return s
		}
		ordered := func(f func(i int) float64) float64 {
			if n < minN {
				return sum(0, n, f)
			}
			var s float64
			for lo := 0; lo < n; lo += block {
				s += sum(lo, min(lo+block, n), f)
			}
			if s == sum(0, n, f) {
				t.Fatalf("n=%d: inputs do not tell the blocked order from the plain one", n)
			}
			return s
		}
		want := ordered(func(i int) float64 { return a[i] * b[i] })
		if got := dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: dot = %x, want %x", n, math.Float64bits(got), math.Float64bits(want))
		}
		const alpha = -0.37
		y := slices.Clone(a)
		got := axpyNormSq(y, alpha, b)
		for i := range y {
			if y[i] != a[i]+alpha*b[i] {
				t.Fatalf("n=%d: axpyNormSq y[%d] = %g, want %g", n, i, y[i], a[i]+alpha*b[i])
			}
		}
		if want := ordered(func(i int) float64 { return y[i] * y[i] }); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: axpyNormSq = %x, want %x", n, math.Float64bits(got), math.Float64bits(want))
		}
		if allocs := testing.AllocsPerRun(5, func() { dot(a, b); axpyNormSq(y, alpha, b) }); allocs != 0 {
			t.Errorf("n=%d: reductions allocate %v times", n, allocs)
		}
	}
}
