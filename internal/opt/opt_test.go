package opt

import (
	"math"
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/pdn"
)

var (
	fitOnce sync.Once
	fitOpt  *Optimizer
	fitErr  error
)

// fastOptimizer fits models once for the whole package (coarse mesh,
// minimal sampling) — FitModels is the expensive step.
func fastOptimizer(t testing.TB) *Optimizer {
	t.Helper()
	fitOnce.Do(func() {
		b, err := bench3d.StackedDDR3Off()
		if err != nil {
			fitErr = err
			return
		}
		fitOpt = &Optimizer{
			Bench:             b,
			MeshPitch:         0.6,
			ContinuousSamples: 2,
			GridSteps:         5,
		}
		fitErr = fitOpt.FitModels()
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitOpt
}

func TestCandidateApply(t *testing.T) {
	b, err := bench3d.StackedDDR3On()
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{M2: 0.15, M3: 0.3, TC: 100, TL: pdn.CenterTSV,
		TD: true, BD: pdn.F2F, RL: true, WB: true}
	s := c.Apply(b.Spec)
	if s.Usage["M2"] != 0.15 || s.Usage["M3"] != 0.3 || s.TSVCount != 100 {
		t.Error("continuous fields not applied")
	}
	if s.TSVStyle != pdn.CenterTSV || s.Bonding != pdn.F2F || !s.DedicatedTSV ||
		s.RDL != pdn.RDLInterface || !s.WireBond {
		t.Error("categorical fields not applied")
	}
	if b.Spec.Usage["M2"] == 0.15 {
		t.Error("Apply must not mutate the baseline")
	}
	// Off-chip: TD is dropped.
	off, _ := bench3d.StackedDDR3Off()
	if c.Apply(off.Spec).DedicatedTSV {
		t.Error("dedicated TSVs must be dropped off-chip")
	}
}

func TestCombosRespectConstraints(t *testing.T) {
	w, err := bench3d.WideIO()
	if err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Bench: w}
	for _, cb := range o.combos() {
		if cb.TL == pdn.EdgeTSV && !cb.RL {
			t.Errorf("Wide I/O edge TSVs without RDL: %+v", cb)
		}
		if cb.TL == pdn.DistributedTSV {
			t.Errorf("Wide I/O must not offer distributed TSVs: %+v", cb)
		}
	}
	off, _ := bench3d.StackedDDR3Off()
	oOff := &Optimizer{Bench: off}
	for _, cb := range oOff.combos() {
		if cb.TD {
			t.Errorf("off-chip combo with dedicated TSVs: %+v", cb)
		}
	}
}

func TestTCSamplesGeometric(t *testing.T) {
	s := tcSamples([2]int{15, 480}, 4)
	if s[0] != 15 || s[len(s)-1] != 480 {
		t.Errorf("endpoints = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Errorf("not increasing: %v", s)
		}
	}
	if got := tcSamples([2]int{160, 160}, 4); len(got) != 1 || got[0] != 160 {
		t.Errorf("fixed range = %v, want [160]", got)
	}
}

// A one-point grid searches each axis at its low end: Best answers at the
// range's lowest TSV count.
func TestBestOnOnePointGrid(t *testing.T) {
	o := *fastOptimizer(t)
	o.GridSteps = 1
	if got := tcSamples(o.Bench.Space.TSVRange, 1); len(got) != 1 || got[0] != o.Bench.Space.TSVRange[0] {
		t.Fatalf("tcSamples(%v, 1) = %v, want the low end alone", o.Bench.Space.TSVRange, got)
	}
	res, err := o.Best(1)
	if err != nil {
		t.Fatal(err)
	}
	if lo := o.Bench.Space.TSVRange[0]; res.Cand.TC != lo {
		t.Errorf("TC = %d, want the range's lowest, %d", res.Cand.TC, lo)
	}
	if got, want := o.GridSize(), len(o.combos()); got != want {
		t.Errorf("GridSize = %d, want one point per combo (%d)", got, want)
	}
}

func TestBestRequiresFit(t *testing.T) {
	b, _ := bench3d.StackedDDR3Off()
	o := &Optimizer{Bench: b}
	if _, err := o.Best(0.3); err == nil {
		t.Error("Best before FitModels: want error")
	}
}

func TestBestAlphaRange(t *testing.T) {
	o := fastOptimizer(t)
	if _, err := o.Best(-0.1); err == nil {
		t.Error("alpha < 0: want error")
	}
	if _, err := o.Best(1.1); err == nil {
		t.Error("alpha > 1: want error")
	}
}

func TestAlphaTradeoff(t *testing.T) {
	o := fastOptimizer(t)
	cheap, err := o.Best(0)
	if err != nil {
		t.Fatal(err)
	}
	quality, err := o.Best(1)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Cost > quality.Cost {
		t.Errorf("alpha=0 cost %.3f should not exceed alpha=1 cost %.3f", cheap.Cost, quality.Cost)
	}
	if quality.MeasIRmV > cheap.MeasIRmV {
		t.Errorf("alpha=1 IR %.2f should not exceed alpha=0 IR %.2f", quality.MeasIRmV, cheap.MeasIRmV)
	}
	// The alpha=0 candidate should be the all-minimum config (paper's
	// Table 9 alpha=0 rows).
	if cheap.Cand.TL != pdn.CenterTSV || cheap.Cand.WB || cheap.Cand.RL {
		t.Errorf("alpha=0 picked non-minimal options: %s", cheap.Cand)
	}
}

func TestModelPredictionsTrackMeasurements(t *testing.T) {
	o := fastOptimizer(t)
	for _, alpha := range []float64{0, 0.5, 1} {
		res, err := o.Best(alpha)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(res.PredIRmV-res.MeasIRmV) / res.MeasIRmV
		if relErr > 0.30 {
			t.Errorf("alpha=%g: model %.2f vs R-Mesh %.2f mV (%.0f%% off)",
				alpha, res.PredIRmV, res.MeasIRmV, relErr*100)
		}
	}
}

func TestFitQualityReported(t *testing.T) {
	o := fastOptimizer(t)
	if o.FitRMSE <= 0 || o.FitRMSE > 0.5 {
		t.Errorf("FitRMSE = %g out of plausible range", o.FitRMSE)
	}
	if o.FitR2 < 0.8 || o.FitR2 > 1 {
		t.Errorf("FitR2 = %g out of plausible range", o.FitR2)
	}
	if o.FitSamples == 0 {
		t.Error("no solves recorded")
	}
	if o.GridSize() <= 0 {
		t.Error("grid size must be positive")
	}
}

// FitSamples counts the fit's own solves, two worst-case states per
// sampled candidate, however many verifications run after it; each
// verification counts its solves on its result.
func TestFitSamplesCountOnlyTheFit(t *testing.T) {
	o := fastOptimizer(t)
	sp := o.Bench.Space
	n := o.samplesPerAxis()
	candidates := len(o.combos()) * len(axisSamples(sp.M2Range[0], sp.M2Range[1], n)) *
		len(axisSamples(sp.M3Range[0], sp.M3Range[1], n)) * len(tcSamples(sp.TSVRange, n+1))
	if want := 2 * candidates; o.FitSamples != want {
		t.Fatalf("FitSamples = %d, want %d (2 states x %d candidates)", o.FitSamples, want, candidates)
	}
	before := o.FitSamples
	best, err := o.Best(0.3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := o.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if best.Solves != 2 || base.Solves != 2 {
		t.Errorf("verification solves: Best %d, Baseline %d, want 2 each", best.Solves, base.Solves)
	}
	if o.FitSamples != before {
		t.Errorf("verification moved FitSamples from %d to %d", before, o.FitSamples)
	}
}

// A fitted optimizer is only read by Best and Baseline, so callers may
// share it: concurrent verifications answer exactly what serial ones do.
// Run with -race.
func TestFittedOptimizerSharedAcrossGoroutines(t *testing.T) {
	o := fastOptimizer(t)
	alphas := []float64{0, 0.3, 1}
	verify := func(i int) (*Result, error) {
		if i == len(alphas) {
			return o.Baseline()
		}
		return o.Best(alphas[i])
	}
	want := make([]*Result, len(alphas)+1)
	for i := range want {
		res, err := verify(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got := make([]*Result, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := verify(i)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] != nil && *got[i] != *want[i] {
			t.Errorf("verification %d: concurrent %+v, serial %+v", i, *got[i], *want[i])
		}
	}
}

func TestBaseline(t *testing.T) {
	o := fastOptimizer(t)
	res, err := o.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cand.TL != pdn.EdgeTSV || res.Cand.TC != 33 {
		t.Errorf("baseline candidate = %s", res.Cand)
	}
	if math.Abs(res.Cost-0.35) > 0.03 {
		t.Errorf("baseline cost %.3f, want ~0.35 (Table 9)", res.Cost)
	}
	if res.MeasIRmV < 20 || res.MeasIRmV > 45 {
		t.Errorf("baseline worst-case IR %.2f mV outside plausible band", res.MeasIRmV)
	}
}
