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
	return pcg(a, diagPre{invD}, b, opt, kernels{workers: 1})
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

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

// Above the sharding threshold, the deterministic block reduction must
// produce bit-identical solutions for every worker count.
func TestShardedKernelsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("large system")
	}
	a := grid2D(96, 96) // 9216 nodes >= kernelMinN
	if a.N < kernelMinN {
		t.Fatalf("test system too small: %d < %d", a.N, kernelMinN)
	}
	b := make([]float64, a.N)
	b[a.N-1] = 0.1
	b[0] = -0.05
	var ref []float64
	var refSt CGStats
	for _, workers := range []int{1, 2, 7} {
		s, err := New(a, Options{Method: MethodCGIC0, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := s.Solve(b, CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refSt = x, st
			continue
		}
		if st != refSt {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, st, refSt)
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d] differs (must be bit-identical)", workers, i)
			}
		}
	}
}
