package rmesh_test

import (
	"math"
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
)

// denseSolver puts the dense oracle behind the solve.Solver interface, so
// the test can run an exact solve through solve.Reordered.
type denseSolver struct{ c *solve.Cholesky }

func (denseSolver) Method() string { return "dense" }

func (d denseSolver) Solve(b []float64, _ solve.CGOptions) ([]float64, solve.CGStats, error) {
	x, err := d.c.Solve(b)
	return x, solve.CGStats{Converged: err == nil}, err
}

// TestReorderedSolveMatchesUnpermuted locks the RCM correctness contract
// on all four paper designs: solving the symmetrically permuted system
// and inverse-permuting the solution must reproduce the unpermuted
// solution — exactly (≤1e-12) under the dense direct method, and within
// the shared CG tolerance budget for the iterative reordered path
// (cg-amg) versus the unreordered production solver (cg-ic0). The cg-amg
// path must also be bit-identical across worker counts.
func TestReorderedSolveMatchesUnpermuted(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			spec := b.Spec.Clone()
			// Coarse pitch keeps the dense factorizations small: past
			// ~1500 nodes their ordering-dependent roundoff alone exceeds
			// the 1e-12 gate, which would test O(n³) float noise, not the
			// permutation.
			spec.MeshPitch = 1.0
			m, err := rmesh.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			rhs := loadedRHS(t, m, b)
			perm := m.Topology().Perm()
			if len(perm) != m.N() {
				t.Fatalf("perm length %d != n %d", len(perm), m.N())
			}

			// Direct half: dense Cholesky on A and on PᵀAP must agree to
			// 1e-12 after inverse permutation.
			if m.N() <= 1500 {
				pa := m.Matrix.Permute(perm)
				cA, err := solve.NewCholesky(m.Matrix)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cA.Solve(rhs)
				if err != nil {
					t.Fatal(err)
				}
				cP, err := solve.NewCholesky(pa)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := solve.Reordered(denseSolver{cP}, perm).Solve(rhs, solve.CGOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
						t.Fatalf("cholesky: x[%d] = %g vs unpermuted %g (diff %g)", i, got[i], want[i], d)
					}
				}
			}

			// Iterative half: the model's cg-amg path (reordered inside)
			// versus the unreordered cg-ic0 production solver, both at the
			// same tolerance.
			tol := 1e-12
			ref, refSt, err := m.Solve(rhs, solve.Options{
				Method: solve.MethodCGIC0, CGOptions: solve.CGOptions{Tol: tol}})
			if err != nil {
				t.Fatal(err)
			}
			if !refSt.Converged {
				t.Fatal("cg-ic0 did not converge")
			}
			x1, st1, err := m.Solve(rhs, solve.Options{
				Method: solve.MethodCGAMG, Workers: 1, CGOptions: solve.CGOptions{Tol: tol}})
			if err != nil {
				t.Fatal(err)
			}
			if !st1.Converged {
				t.Fatalf("cg-amg stats = %+v", st1)
			}
			for i := range ref {
				if d := math.Abs(x1[i] - ref[i]); d > 1e-7*(1+math.Abs(ref[i])) {
					t.Fatalf("cg-amg x[%d] = %g vs cg-ic0 %g (diff %g)", i, x1[i], ref[i], d)
				}
			}

			// Worker-count determinism of the reordered path.
			x8, st8, err := m.Solve(rhs, solve.Options{
				Method: solve.MethodCGAMG, Workers: 8, CGOptions: solve.CGOptions{Tol: tol}})
			if err != nil {
				t.Fatal(err)
			}
			if st1 != st8 {
				t.Fatalf("cg-amg stats differ across workers: %+v vs %+v", st1, st8)
			}
			for i := range x1 {
				if math.Float64bits(x1[i]) != math.Float64bits(x8[i]) {
					t.Fatalf("cg-amg x[%d] differs across worker counts (must be bit-identical)", i)
				}
			}
		})
	}
}

// The reordered matrix is materialized lazily on first use; concurrent
// first solves must race neither on the materialization nor on results
// (run under -race to check the lock).
func TestReorderedMatrixConcurrentFirstUse(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.8
	m, err := rmesh.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rhs := loadedRHS(t, m, b)
	const G = 8
	results := make([][]float64, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, _, err := m.Solve(rhs, solve.Options{
				// Distinct worker counts force distinct solver-cache
				// entries, so several goroutines hit reorderedMatrix at
				// once instead of coalescing on one cache key.
				Method: solve.MethodCGAMG, Workers: 1 + g%3,
				CGOptions: solve.CGOptions{Tol: 1e-11}})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = x
		}()
	}
	wg.Wait()
	for g := 1; g < G; g++ {
		if results[g] == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		for i := range results[0] {
			if math.Float64bits(results[g][i]) != math.Float64bits(results[0][i]) {
				t.Fatalf("goroutine %d: x[%d] differs", g, i)
			}
		}
	}
}

// A restamp must refresh the reordered matrix too: after changing metal
// usage, a cg-amg solve must match a from-scratch build of the new spec.
func TestRestampRefreshesReorderedMatrix(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.8
	m, err := rmesh.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rhs := loadedRHS(t, m, b)
	// Materialize the reordered matrix on the original values.
	if _, _, err := m.Solve(rhs, solve.Options{Method: solve.MethodCGAMG, CGOptions: solve.CGOptions{Tol: 1e-11}}); err != nil {
		t.Fatal(err)
	}

	spec2 := spec.Clone()
	for k, v := range spec2.Usage {
		spec2.Usage[k] = v * 0.7
	}
	if err := m.Restamp(spec2); err != nil {
		t.Fatal(err)
	}
	fresh, err := rmesh.Build(spec2)
	if err != nil {
		t.Fatal(err)
	}
	rhs2 := loadedRHS(t, m, b)
	want, _, err := fresh.Solve(rhs2, solve.Options{Method: solve.MethodCGAMG, CGOptions: solve.CGOptions{Tol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Solve(rhs2, solve.Options{Method: solve.MethodCGAMG, CGOptions: solve.CGOptions{Tol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("restamped cg-amg x[%d] = %g vs fresh build %g (restamp must be bit-identical)", i, got[i], want[i])
		}
	}
}

// Keep the bandwidth payoff visible on every design: the frozen
// topology's permutation must strictly reduce matrix bandwidth.
func TestPermutationReducesBandwidthOnDesigns(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		spec := b.Spec.Clone()
		spec.MeshPitch = 0.8
		m, err := rmesh.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		perm := m.Topology().Perm()
		pm := m.Matrix.Permute(perm)
		if got, was := pm.Bandwidth(), m.Matrix.Bandwidth(); got >= was {
			t.Errorf("%s: RCM bandwidth %d not below natural %d", b.Name, got, was)
		}
	}
}
