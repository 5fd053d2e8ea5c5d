package irdrop

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/tech"
)

func coarseSpec(t testing.TB) *pdn.Spec {
	t.Helper()
	fp, err := floorplan.DDR3Die(floorplan.DefaultDDR3())
	if err != nil {
		t.Fatal(err)
	}
	return &pdn.Spec{
		Name:      "test",
		NumDRAM:   4,
		DRAM:      fp,
		DRAMTech:  tech.DRAM20(1.5),
		Usage:     map[string]float64{"M2": 0.10, "M3": 0.20},
		Bonding:   pdn.F2B,
		TSVStyle:  pdn.EdgeTSV,
		TSVCount:  33,
		MeshPitch: 0.5,
	}
}

func state(t testing.TB, counts ...int) memstate.State {
	t.Helper()
	s, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(8))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeBasics(t *testing.T) {
	a, err := New(coarseSpec(t), powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Analyze(state(t, 0, 0, 0, 2), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxIR <= 0 {
		t.Fatal("max IR must be positive")
	}
	if len(r.PerDie) != 4 {
		t.Fatalf("PerDie has %d entries", len(r.PerDie))
	}
	var worst float64
	for _, v := range r.PerDie {
		if v > worst {
			worst = v
		}
	}
	if math.Abs(worst-r.MaxIR) > 1e-15 {
		t.Error("MaxIR must equal the per-die maximum")
	}
	if math.Abs(r.TotalPower-310.5) > 3.5 {
		t.Errorf("stack power %.1f, want ~310.5 mW", r.TotalPower)
	}
	if !r.Stats.Converged {
		t.Error("solver did not converge")
	}
	if len(r.IR) != a.Model.N() {
		t.Error("IR vector length mismatch")
	}
}

func TestAnalyzeRejectsBadState(t *testing.T) {
	a, err := New(coarseSpec(t), powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tooMany := memstate.State{Dies: make([][]int, 9)}
	if _, err := a.Analyze(tooMany, 1.0); err == nil {
		t.Error("too many dies: want error")
	}
	if _, err := a.LoadedRHS(tooMany, 1.0); err == nil {
		t.Error("LoadedRHS with too many dies: want error")
	}
}

func TestNewRejectsLogicPowerOffChip(t *testing.T) {
	if _, err := New(coarseSpec(t), powermap.StackedDDR3Power(), powermap.T2Power(1000)); err == nil {
		t.Error("logic power on an off-chip design: want error")
	}
}

func TestLoadedRHSMatchesAnalyze(t *testing.T) {
	a, err := New(coarseSpec(t), powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := state(t, 0, 0, 0, 2)
	rhs, err := a.LoadedRHS(st, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rhs) != a.Model.N() {
		t.Fatal("rhs length mismatch")
	}
	// Net injected current must equal tie current minus load current:
	// sum(rhs) = G_tie*VDD - P/VDD (in amps).
	var sum float64
	for _, v := range rhs {
		sum += v
	}
	base := a.Model.BaseRHS()
	var baseSum float64
	for _, v := range base {
		baseSum += v
	}
	r, err := a.Analyze(st, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	wantLoad := r.TotalPower / 1000 / a.Model.VDD
	if math.Abs((baseSum-sum)-wantLoad) > 1e-9 {
		t.Errorf("rhs load component %.6f A, want %.6f A", baseSum-sum, wantLoad)
	}
}

func TestValidateRefinementAgreement(t *testing.T) {
	spec := coarseSpec(t)
	v, err := Validate(spec, powermap.StackedDDR3Power(), nil, state(t, 0, 0, 0, 2), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if v.FineNodes <= v.CoarseNodes {
		t.Error("reference mesh must be finer")
	}
	if v.ErrPct > 15 {
		t.Errorf("refinement error %.1f%% implausibly large", v.ErrPct)
	}
	if v.CoarseIR <= 0 || v.FineIR <= 0 {
		t.Error("IR drops must be positive")
	}
}

func TestSingleDie2D(t *testing.T) {
	spec := coarseSpec(t)
	spec.OnLogic = false
	d2 := SingleDie2D(spec)
	if d2.NumDRAM != 1 || d2.OnLogic || d2.WireBond {
		t.Errorf("2D derivation wrong: %+v", d2)
	}
	if err := d2.Validate(); err != nil {
		t.Errorf("2D spec invalid: %v", err)
	}
	// Single die, single bank read: the paper's 2D DDR3 shows ~22.5 mV;
	// ours should be in the same band at full pitch, looser here (coarse).
	a, err := New(d2, powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Analyze(memstate.State{Dies: [][]int{{4, 6}}}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxIRmV() < 10 || r.MaxIRmV() > 45 {
		t.Errorf("2D DDR3 interleaving read = %.2f mV, expected tens of mV", r.MaxIRmV())
	}
}

func TestCrowdingStats(t *testing.T) {
	a, err := New(coarseSpec(t), powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Analyze(state(t, 0, 0, 0, 2), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.Crowding(r)
	if err != nil {
		t.Fatal(err)
	}
	var tsv, landing bool
	var totalLanding float64
	for _, s := range stats {
		if s.Count <= 0 || s.MaxMA < s.MeanMA || s.Crowding < 1 {
			t.Errorf("%s: inconsistent stats %+v", s.Kind, s)
		}
		if s.P95MA > s.MaxMA {
			t.Errorf("%s: P95 %.3f above max %.3f", s.Kind, s.P95MA, s.MaxMA)
		}
		switch s.Kind {
		case rmesh.LinkTSV:
			tsv = true
		case rmesh.LinkLanding:
			landing = true
			totalLanding = s.TotalMA
		}
	}
	if !tsv || !landing {
		t.Fatalf("expected TSV and landing stats, got %+v", stats)
	}
	// All supply current enters through the landings: total landing
	// current equals stack power / VDD.
	wantMA := r.TotalPower / a.Model.VDD
	if math.Abs(totalLanding-wantMA) > wantMA*0.01 {
		t.Errorf("landing current %.1f mA, want %.1f mA", totalLanding, wantMA)
	}
}

func TestCrowdingWorseWithFewEdgeTSVs(t *testing.T) {
	few := coarseSpec(t)
	few.TSVCount = 8
	many := coarseSpec(t)
	many.TSVCount = 128
	get := func(spec *pdn.Spec) float64 {
		a, err := New(spec, powermap.StackedDDR3Power(), nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.Analyze(state(t, 0, 0, 0, 2), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := a.Crowding(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			if s.Kind == rmesh.LinkTSV {
				return s.MaxMA
			}
		}
		t.Fatal("no TSV stats")
		return 0
	}
	if fewMax, manyMax := get(few), get(many); fewMax <= manyMax {
		t.Errorf("peak TSV current with 8 TSVs (%.2f mA) should exceed 128 TSVs (%.2f mA)", fewMax, manyMax)
	}
}

// AnalyzeCtx: a canceled context aborts mid-solve; a live context produces
// results identical to Analyze's, each call a fresh solve (fresh pointers).
func TestAnalyzeCtx(t *testing.T) {
	a, err := New(coarseSpec(t), powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := state(t, 0, 0, 0, 2)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnalyzeCtx(canceled, st, 1.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeCtx on canceled ctx = %v, want context.Canceled", err)
	}

	fresh, err := a.AnalyzeCtx(context.Background(), st, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := a.Analyze(st, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == again {
		t.Error("the analyzer must keep no answers: a second call shared the first's result")
	}
	if fresh.MaxIR != again.MaxIR || fresh.TotalPower != again.TotalPower {
		t.Errorf("AnalyzeCtx result differs: MaxIR %g vs %g", fresh.MaxIR, again.MaxIR)
	}
	for d := range fresh.PerDie {
		if fresh.PerDie[d] != again.PerDie[d] {
			t.Errorf("PerDie[%d] = %g vs %g", d, fresh.PerDie[d], again.PerDie[d])
		}
	}
}
