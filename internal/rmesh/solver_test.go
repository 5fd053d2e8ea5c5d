package rmesh_test

import (
	"math"
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/obs"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
)

// TestAMGMatchesIC0 holds the two methods to one answer on all four paper
// designs: at Tol 1e-12, cg-amg must agree with cg-ic0 within 1e-7. A
// 0.4 mm pitch keeps the -race run short.
func TestAMGMatchesIC0(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			spec := b.Spec.Clone()
			spec.MeshPitch = 0.4
			m, err := rmesh.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			rhs := loadedRHS(t, m, b)
			cg := solve.CGOptions{Tol: 1e-12}
			ref, refSt, err := m.Solve(rhs, solve.Options{Method: solve.MethodCGIC0, CGOptions: cg})
			if err != nil {
				t.Fatal(err)
			}
			if !refSt.Converged {
				t.Fatal("cg-ic0 did not converge")
			}
			x, st, err := m.Solve(rhs, solve.Options{Method: solve.MethodCGAMG, CGOptions: cg})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged {
				t.Fatalf("cg-amg stats = %+v", st)
			}
			for i := range ref {
				if d := math.Abs(x[i] - ref[i]); d > 1e-7*(1+math.Abs(ref[i])) {
					t.Fatalf("cg-amg x[%d] = %g vs cg-ic0 %g (diff %g)", i, x[i], ref[i], d)
				}
			}
		})
	}
}

// Concurrent first use of one model's cg-amg solver must build it once
// and hand every caller the same answer (run under -race to check the
// cache).
func TestAMGConcurrentFirstUseBuildsOnce(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.8
	reg := obs.NewRegistry()
	m, err := rmesh.BuildObs(spec, reg)
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
			x, _, err := m.Solve(rhs, solve.Options{Method: solve.MethodCGAMG, CGOptions: solve.CGOptions{Tol: 1e-11}})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = x
		}()
	}
	wg.Wait()
	if n := reg.Snapshot().Counters["rmesh.solver_cache.misses"]; n != 1 {
		t.Errorf("rmesh.solver_cache.misses = %d, want 1 (one cg-amg set-up)", n)
	}
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

// A model stamped over a shared topology solves cg-amg bit-identically to
// a fresh build: its hierarchy is set up on its own values, even after a
// sibling over the same pattern set one up on others.
func TestRestampedAMGMatchesFreshBuild(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.8
	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	amg := solve.Options{Method: solve.MethodCGAMG, CGOptions: solve.CGOptions{Tol: 1e-11}}
	if _, _, err := m.Solve(loadedRHS(t, m, b), amg); err != nil {
		t.Fatal(err)
	}

	spec2 := spec.Clone()
	for k, v := range spec2.Usage {
		spec2.Usage[k] = v * 0.7
	}
	m2, err := topo.NewModel(spec2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rmesh.Build(spec2)
	if err != nil {
		t.Fatal(err)
	}
	rhs2 := loadedRHS(t, m2, b)
	want, _, err := fresh.Solve(rhs2, amg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m2.Solve(rhs2, amg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("stamped cg-amg x[%d] = %g vs fresh build %g (must be bit-identical)", i, got[i], want[i])
		}
	}
}

// An unset method follows solve.MethodFor's size rule: ddr3-off at its
// default 0.2 mm pitch (9,800 nodes) gets cg-ic0, and at 0.07 mm (76,048
// nodes) cg-amg. An empty method and the name it resolves to share one
// cached solver.
func TestSolverPicksMethodBySize(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pitch float64
		want  string
	}{
		{0.2, solve.MethodCGIC0},
		{0.07, solve.MethodCGAMG},
	} {
		if tc.want == solve.MethodCGAMG && testing.Short() {
			t.Log("skipping the 76,048-node mesh under -short")
			continue
		}
		spec := b.Spec.Clone()
		spec.MeshPitch = tc.pitch
		reg := obs.NewRegistry()
		m, err := rmesh.BuildObs(spec, reg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Solver(solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Method() != tc.want {
			t.Errorf("pitch %g (%d nodes): Solver(Options{}) is %s, want %s", tc.pitch, m.N(), s.Method(), tc.want)
		}
		named, err := m.Solver(solve.Options{Method: tc.want})
		if err != nil {
			t.Fatal(err)
		}
		if named != s {
			t.Errorf("pitch %g: the empty method and %q built separate solvers", tc.pitch, tc.want)
		}
		if n := reg.Snapshot().Counters["rmesh.solver_cache.misses"]; n != 1 {
			t.Errorf("pitch %g: rmesh.solver_cache.misses = %d, want 1", tc.pitch, n)
		}
	}
}
