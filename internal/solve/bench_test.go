package solve

import (
	"testing"

	"pdn3d/internal/obs"
)

// Benchmark systems are 2D grid Laplacians with one supply tie — the same
// stencil structure the R-Mesh nodal systems have. Sizes track the paper's
// operating range: ~1k nodes (one die's coarse mesh), ~10k (full stack),
// ~100k (fine-pitch stack).
var benchSizes = []struct {
	name   string
	nx, ny int
}{
	{"n1k", 32, 32},     // 1024 nodes
	{"n10k", 100, 100},  // 10000 nodes
	{"n100k", 316, 316}, // 99856 nodes
}

func benchCG(b *testing.B, method string) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			a := grid2D(sz.nx, sz.ny)
			s, err := New(a, Options{Method: method})
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, a.N)
			rhs[a.N-1] = 0.1
			rhs[a.N/2] = 0.05
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				_, st, err := s.Solve(rhs, CGOptions{Tol: 1e-8})
				if err != nil {
					b.Fatal(err)
				}
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "iters/solve")
		})
	}
}

func BenchmarkCG_IC0(b *testing.B) { benchCG(b, MethodCGIC0) }

// BenchmarkCG_AMG tracks the multigrid-preconditioned path. Its
// iters/solve metric feeds BENCH_solver.json and the CI iteration guard:
// AMG's near-size-independent iteration counts versus cg-ic0's growth are
// the committed evidence for the preconditioner's payoff at scale.
func BenchmarkCG_AMG(b *testing.B) { benchCG(b, MethodCGAMG) }

// BenchmarkCG_AMG_Recorded is BenchmarkCG_AMG with the flight recorder
// attached. The spread between the two is the recorder's overhead; the
// budget is ≤2% time and ≤8 allocs/op versus the unrecorded run.
func BenchmarkCG_AMG_Recorded(b *testing.B) {
	buf := obs.NewSolveBuffer(obs.DefaultRetainCap)
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			a := grid2D(sz.nx, sz.ny)
			s, err := New(a, Options{Method: MethodCGAMG})
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, a.N)
			rhs[a.N-1] = 0.1
			rhs[a.N/2] = 0.05
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				rec := buf.StartSolveRecord()
				_, st, err := s.Solve(rhs, CGOptions{Tol: 1e-8, Rec: rec})
				rec.Commit()
				if err != nil {
					b.Fatal(err)
				}
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "iters/solve")
		})
	}
}

// BenchmarkAMGSetup isolates the hierarchy build (aggregation + Galerkin
// products + coarse factorization) the Solver interface amortizes.
func BenchmarkAMGSetup(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			a := grid2D(sz.nx, sz.ny)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewAMG(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIC0Factorization isolates the one-time setup cost the Solver
// interface amortizes across right-hand sides.
func BenchmarkIC0Factorization(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			a := grid2D(sz.nx, sz.ny)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewIC(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpMV tracks the raw CSR matrix-vector product on the
// fine-pitch grid.
func BenchmarkSpMV(b *testing.B) {
	a := grid2D(316, 316)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}
