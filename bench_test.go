package pdn3d

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section. Each benchmark regenerates its
// table/series through internal/exp and logs it once, so
//
//	go test -bench=. -benchmem
//
// reproduces every reported row. Benchmarks run at a coarsened mesh pitch
// and a shortened workload to keep the full sweep in minutes; cmd/tables
// regenerates everything at full fidelity.

import (
	"sync"
	"testing"

	"pdn3d/internal/exp"
)

// benchRunner shares analyzers and look-up tables across benchmarks.
var (
	benchRunnerOnce sync.Once
	benchRunnerInst *exp.Runner
)

func benchRunner() *exp.Runner {
	benchRunnerOnce.Do(func() {
		benchRunnerInst = exp.NewRunner(exp.Config{MeshPitch: 0.4, Requests: 4000})
	})
	return benchRunnerInst
}

type stringer interface{ String() string }

func runTableBench(b *testing.B, f func() (stringer, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table1() })
}

func BenchmarkFigure4Validation(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { t, _, err := r.Figure4(); return t, err })
}

func BenchmarkSec3MetalUsage(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.MetalUsageStudy() })
}

func BenchmarkSec31Mounting(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.MountingStudy() })
}

func BenchmarkFigure5TSVSweep(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Figure5() })
}

func BenchmarkTable2TSVRDLOptions(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table2() })
}

func BenchmarkTable3DedicatedWireBond(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table3() })
}

func BenchmarkTable4IntraPairOverlap(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table4() })
}

func BenchmarkTable5MemoryStateIO(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table5() })
}

func BenchmarkTable6Policies(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { t, _, err := r.Table6(); return t, err })
}

func BenchmarkTable7Cases(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table7() })
}

func BenchmarkFigure9ConstraintSweep(b *testing.B) {
	r := benchRunner()
	// A reduced constraint set keeps one iteration around a minute.
	runTableBench(b, func() (stringer, error) { return r.Figure9([]float64{16, 20, 24, 28}) })
}

func BenchmarkTable8CostModel(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.Table8() })
}

func BenchmarkTable9StackedDDR3Off(b *testing.B) {
	benchTable9(b, "ddr3-off")
}

func BenchmarkTable9StackedDDR3On(b *testing.B) {
	benchTable9(b, "ddr3-on")
}

func BenchmarkTable9WideIO(b *testing.B) {
	benchTable9(b, "wideio")
}

func BenchmarkTable9HMC(b *testing.B) {
	benchTable9(b, "hmc")
}

// coldFitConfig is the fidelity of the co-optimization benchmarks. A
// Runner fits each benchmark once and keeps the fit, so they build a
// fresh Runner every iteration to time the cold fit, at a coarser pitch
// than the shared runner to keep the sampling pass quick.
var coldFitConfig = exp.Config{MeshPitch: 0.5}

func benchTable9(b *testing.B, name string) {
	b.Helper()
	runTableBench(b, func() (stringer, error) { return exp.NewRunner(coldFitConfig).Table9(name) })
}

func BenchmarkRegressionStudy(b *testing.B) {
	runTableBench(b, func() (stringer, error) { return exp.NewRunner(coldFitConfig).RegressionStudy("ddr3-off") })
}

// BenchmarkSolveOffChipBaseline times one raw R-Mesh build+solve — the
// platform's inner loop (the paper quotes 5 s per R-Mesh run vs 517 s EPS).
func BenchmarkSolveOffChipBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench, err := LoadBenchmark("ddr3-off")
		if err != nil {
			b.Fatal(err)
		}
		a, err := NewAnalyzer(bench.Spec, bench.DRAMPower, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.AnalyzeCounts([]int{0, 0, 0, 2}, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionCrowding(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.CrowdingStudy() })
}

func BenchmarkExtensionTSVFailure(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.TSVFailureStudy() })
}

func BenchmarkExtensionPolicyAllBenchmarks(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.PolicyStudyAll() })
}

func BenchmarkExtensionACDroop(b *testing.B) {
	r := benchRunner()
	runTableBench(b, func() (stringer, error) { return r.ACStudy() })
}
