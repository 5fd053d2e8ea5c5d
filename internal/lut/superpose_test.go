package lut

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
)

// analyzerFor builds an analyzer for a paper design at the given pitch
// (0 keeps the paper's), loading the logic die where the design has one.
func analyzerFor(t *testing.T, b *bench3d.Benchmark, pitch float64) *irdrop.Analyzer {
	t.Helper()
	spec := b.Spec.Clone()
	if pitch > 0 {
		spec.MeshPitch = pitch
	}
	logic := b.LogicPower
	if !spec.OnLogic {
		logic = nil
	}
	a, err := irdrop.New(spec, b.DRAMPower, logic)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkAgainstOracle compares a summed table's entries at the given
// states and I/O levels with direct solves of those states at Tol 1e-13.
func checkAgainstOracle(t *testing.T, b *bench3d.Benchmark, pitch float64, levels []float64, states [][]int) {
	table, err := BuildWith(analyzerFor(t, b, pitch), 2, levels, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := analyzerFor(t, b, pitch)
	oracle.Opts.Tol = 1e-13
	var worst float64
	for _, counts := range states {
		for _, io := range levels {
			r, err := oracle.AnalyzeCounts(counts, io)
			if err != nil {
				t.Fatal(err)
			}
			got, err := table.MaxIR(counts, io)
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(got-r.MaxIR) / r.MaxIR
			worst = math.Max(worst, rel)
			if rel > 1e-6 {
				t.Errorf("%v@%g: summed %.9f mV, direct %.9f mV (relative error %.2g)",
					counts, io, got*1000, r.MaxIR*1000, rel)
			}
		}
	}
	t.Logf("max relative error against the oracle: %.2g", worst)
}

// Summed entries match direct tight-tolerance solves on the four paper
// designs, for a spread of states on a coarse mesh and at the paper's
// pitch (measured there over all 81 states at full I/O activity: at most
// 5.7e-8 relative).
func TestSummedEntriesMatchDirectSolves(t *testing.T) {
	benches, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	states := [][]int{{0, 0, 0, 0}, {0, 0, 0, 2}, {0, 1, 0, 0}, {2, 0, 1, 0}, {1, 1, 1, 1}, {2, 2, 2, 2}}
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			t.Run("coarse", func(t *testing.T) {
				checkAgainstOracle(t, b, 0.6, []float64{0.25, 1.0}, states)
			})
			t.Run("full-pitch", func(t *testing.T) {
				if testing.Short() || raceEnabled {
					t.Skip("full-pitch oracle solves skipped in -short and -race runs")
				}
				checkAgainstOracle(t, b, 0, []float64{1.0}, states)
			})
		})
	}
}

// A build solves L·(1 + D·maxPerDie) responses, not one per grid point.
func TestBuildSolveCount(t *testing.T) {
	a := coarseAnalyzer(t)
	for _, tc := range []struct {
		maxPerDie int
		levels    []float64
		solves    int
	}{
		{2, DefaultIOLevels(), 27}, // Table 6: 243 points
		{1, []float64{1.0}, 5},
		{3, []float64{0.5, 1.0}, 26},
	} {
		before := a.Solves()
		table, err := BuildWith(a, tc.maxPerDie, tc.levels, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Solves() - before; got != tc.solves {
			t.Errorf("maxPerDie %d, %d levels: %d solves, want %d", tc.maxPerDie, len(tc.levels), got, tc.solves)
		}
		if want := len(tc.levels) * int(math.Pow(float64(tc.maxPerDie+1), 4)); table.Entries() != want {
			t.Errorf("maxPerDie %d, %d levels: %d entries, want %d", tc.maxPerDie, len(tc.levels), table.Entries(), want)
		}
	}
}

// Each state is summed in die order by one worker, so the table is
// byte-identical for every worker count.
func TestPointsIdenticalAcrossWorkers(t *testing.T) {
	a := coarseAnalyzer(t)
	serial, err := BuildWith(a, 2, DefaultIOLevels(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := BuildWith(a, 2, DefaultIOLevels(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sp, pp := serial.Points(), pooled.Points()
	if len(sp) != len(pp) {
		t.Fatalf("%d points with 1 worker, %d with 8", len(sp), len(pp))
	}
	for i := range sp {
		if key(sp[i].Counts, sp[i].IO) != key(pp[i].Counts, pp[i].IO) ||
			math.Float64bits(sp[i].MaxIR) != math.Float64bits(pp[i].MaxIR) {
			t.Fatalf("point %d: %v@%g = %x with 1 worker, %v@%g = %x with 8", i,
				sp[i].Counts, sp[i].IO, math.Float64bits(sp[i].MaxIR),
				pp[i].Counts, pp[i].IO, math.Float64bits(pp[i].MaxIR))
		}
	}
}

// A build neither reads nor publishes the analyzer's warm-start cell: the
// cell's seed is a node-voltage vector, and the build solves in IR space.
func TestBuildLeavesWarmSeed(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	a := analyzerFor(t, b, 0.6)
	a.Warm = &irdrop.WarmStart{}
	if _, err := a.AnalyzeCounts([]int{1, 0, 0, 0}, 1.0); err != nil {
		t.Fatal(err)
	}
	seed0 := a.Warm.Seed(a.Model.N())
	if seed0 == nil {
		t.Fatal("priming solve did not publish a warm seed")
	}
	table, err := BuildWith(a, 2, DefaultIOLevels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if seed1 := a.Warm.Seed(a.Model.N()); seed1 == nil || &seed1[0] != &seed0[0] {
		t.Error("the build replaced the warm-start seed")
	}
	cold := sharedTableFor(t)
	for _, p := range cold.Points() {
		if v, err := table.MaxIR(p.Counts, p.IO); err != nil || math.Float64bits(v) != math.Float64bits(p.MaxIR) {
			t.Fatalf("%v@%g: %g with a warm cell, %g without (%v)", p.Counts, p.IO, v, p.MaxIR, err)
		}
	}
}

// A cancelled build stops solving and returns the context's error.
func TestBuildCtxCancelled(t *testing.T) {
	a := coarseAnalyzer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := a.Solves()
	if _, err := BuildCtx(ctx, a, 2, DefaultIOLevels(), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := a.Solves() - before; n != 1 {
		t.Errorf("cancelled build ran %d solves, want 1 (the first, stopped at its first iteration)", n)
	}
}
