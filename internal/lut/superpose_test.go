package lut

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/obs"
	"pdn3d/internal/solve"
)

// analyzerFor builds an analyzer for a paper design at the given pitch
// (0 keeps the paper's), loading the logic die where the design has one.
func analyzerFor(t *testing.T, b *bench3d.Benchmark, pitch float64) *irdrop.Analyzer {
	t.Helper()
	spec := b.Spec.Clone()
	if pitch > 0 {
		spec.MeshPitch = pitch
	}
	a, err := irdrop.New(spec, b.DRAMPower, b.LogicFor(spec))
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
// 6.8e-9 relative).
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

// A build solves each unit term once, 1 + D·(1 + maxPerDie) responses
// plus one for a logic die, whatever the number of levels — not one per
// grid point or per level.
func TestBuildSolveCount(t *testing.T) {
	ten := make([]float64, 10)
	for i := range ten {
		ten[i] = float64(i+1) / 10
	}
	b, err := bench3d.StackedDDR3On()
	if err != nil {
		t.Fatal(err)
	}
	onChip := analyzerFor(t, b, 0.6)
	for _, tc := range []struct {
		a         *irdrop.Analyzer
		maxPerDie int
		levels    []float64
		solves    int
	}{
		{coarseAnalyzer(t), 2, DefaultIOLevels(), 13}, // Table 6: 243 points
		{coarseAnalyzer(t), 1, []float64{1.0}, 9},
		{coarseAnalyzer(t), 3, []float64{0.5, 1.0}, 17},
		{coarseAnalyzer(t), 2, ten, 13},
		{onChip, 2, DefaultIOLevels(), 14}, // the logic die's load is one more term
	} {
		before := tc.a.Solves()
		table, err := BuildWith(tc.a, tc.maxPerDie, tc.levels, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s, maxPerDie %d, %d levels", tc.a.Spec().Name, tc.maxPerDie, len(tc.levels))
		if got := tc.a.Solves() - before; got != tc.solves {
			t.Errorf("%s: %d solves, want %d", name, got, tc.solves)
		}
		if want := len(tc.levels) * int(math.Pow(float64(tc.maxPerDie+1), 4)); table.Entries() != want {
			t.Errorf("%s: %d entries, want %d", name, table.Entries(), want)
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
		if !reflect.DeepEqual(sp[i].Counts, pp[i].Counts) || sp[i].IO != pp[i].IO ||
			math.Float64bits(sp[i].MaxIR) != math.Float64bits(pp[i].MaxIR) {
			t.Fatalf("point %d: %v@%g = %x with 1 worker, %v@%g = %x with 8", i,
				sp[i].Counts, sp[i].IO, math.Float64bits(sp[i].MaxIR),
				pp[i].Counts, pp[i].IO, math.Float64bits(pp[i].MaxIR))
		}
	}
}

// A cancelled build stops solving and returns the context's error: it
// starts at most one lockstep group, at most four solves, each stopped at
// its first iteration.
func TestBuildCtxCancelled(t *testing.T) {
	a := coarseAnalyzer(t)
	a.SolveRecords = obs.NewSolveBuffer(solve.LockstepWidth)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := a.Solves()
	if _, err := BuildCtx(ctx, a, 2, DefaultIOLevels(), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := a.Solves() - before
	if n < 1 || n > solve.LockstepWidth {
		t.Errorf("cancelled build ran %d solves, want one group of 1 to %d", n, solve.LockstepWidth)
	}
	recent, _, added := a.SolveRecords.Snapshot()
	if added != int64(n) {
		t.Fatalf("%d solve records for %d solves", added, n)
	}
	for _, r := range recent {
		if r.Iterations != 0 || r.Termination != obs.TermCancelled {
			t.Errorf("solve %s: %d iterations, termination %q; want cancelled at its first iteration", r.ID, r.Iterations, r.Termination)
		}
	}
}
