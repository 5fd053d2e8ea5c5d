// Package opt implements the paper's cross-domain co-optimization (§6):
// for one benchmark it samples the continuous design axes (M2/M3 usage, TSV
// count) per categorical option combo (TSV location, dedicated TSVs,
// bonding style, RDL, wire bonding), fits a regression IR-drop model per
// combo (standing in for the paper's MATLAB regression), searches the full
// space for the minimum IR-cost = IR^α · Cost^(1−α), and verifies winners
// with the R-Mesh engine (the paper's "Matlab" vs. "R-Mesh" columns).
package opt

import (
	"fmt"
	"math"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/cost"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/obs"
	"pdn3d/internal/par"
	"pdn3d/internal/pdn"
	"pdn3d/internal/regress"
	"pdn3d/internal/units"
)

// Candidate is one point in the design space.
type Candidate struct {
	// M2, M3 are the layer VDD usage fractions.
	M2, M3 float64
	// TC is the PG TSV count.
	TC int
	// TL is the TSV location style.
	TL pdn.TSVLocation
	// TD adds dedicated via-last TSVs (on-chip designs only).
	TD bool
	// BD is the bonding style.
	BD pdn.Bonding
	// RL inserts the interface RDL.
	RL bool
	// WB adds backside wire bonding.
	WB bool
}

// Apply produces a spec for the candidate based on the benchmark baseline.
func (c Candidate) Apply(base *pdn.Spec) *pdn.Spec {
	s := base.Clone()
	s.Usage["M2"] = c.M2
	s.Usage["M3"] = c.M3
	s.TSVCount = c.TC
	s.TSVStyle = c.TL
	s.DedicatedTSV = c.TD && s.OnLogic
	s.Bonding = c.BD
	if c.RL {
		s.RDL = pdn.RDLInterface
	} else {
		s.RDL = pdn.RDLNone
	}
	s.WireBond = c.WB
	return s
}

func (c Candidate) String() string {
	yn := func(b bool) string {
		if b {
			return "Y"
		}
		return "N"
	}
	return fmt.Sprintf("M2=%.0f%% M3=%.0f%% TC=%d TL=%s TD=%s BD=%s RL=%s WB=%s",
		c.M2*100, c.M3*100, c.TC, c.TL, yn(c.TD), c.BD, yn(c.RL), yn(c.WB))
}

// combo is the categorical part of a candidate.
type combo struct {
	TL pdn.TSVLocation
	TD bool
	BD pdn.Bonding
	RL bool
	WB bool
}

func (c combo) key() string {
	return fmt.Sprintf("%s|%v|%s|%v|%v", c.TL, c.TD, c.BD, c.RL, c.WB)
}

// Optimizer runs the co-optimization for one benchmark.
type Optimizer struct {
	// Bench is the benchmark under optimization.
	Bench *bench3d.Benchmark
	// MeshPitch overrides the R-Mesh pitch for the sampling solves.
	MeshPitch float64
	// ContinuousSamples is the per-axis sample count for the regression
	// training set (0 selects 3).
	ContinuousSamples int
	// GridSteps is the per-axis resolution of the prediction-space search
	// (0 selects 9).
	GridSteps int
	// Workers bounds the sampling worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Obs, when non-nil, receives sampling metrics: the mesh/solver
	// instrumentation of every R-Mesh evaluation plus a span around the
	// model fit on its run trace. Optimization results are identical
	// either way.
	Obs *obs.Registry

	fits map[string]*regress.Fit
	// FitRMSE and FitR2 summarize the worst fit across combos, the
	// figures the paper quotes (RMSE < 0.135, R² > 0.999).
	FitRMSE, FitR2 float64
	// FitSamples is the number of R-Mesh solves FitModels spent sampling.
	// Best and Baseline leave it alone: each result counts its own
	// verification solves.
	FitSamples int
}

func (o *Optimizer) samplesPerAxis() int {
	if o.ContinuousSamples > 0 {
		return o.ContinuousSamples
	}
	return 3
}

func (o *Optimizer) gridSteps() int {
	if o.GridSteps > 0 {
		return o.GridSteps
	}
	return 9
}

// combos enumerates the valid categorical combinations for the benchmark's
// design space.
func (o *Optimizer) combos() []combo {
	sp := o.Bench.Space
	var tds []bool
	if o.Bench.Spec.OnLogic {
		tds = []bool{false, true}
	} else {
		tds = []bool{false}
	}
	var out []combo
	for _, tl := range sp.Locations {
		for _, td := range tds {
			for _, bd := range []pdn.Bonding{pdn.F2B, pdn.F2F} {
				if bd == pdn.F2F && o.Bench.Spec.NumDRAM%2 != 0 {
					continue
				}
				for _, rl := range []bool{false, true} {
					if sp.EdgeNeedsRDL && tl == pdn.EdgeTSV && !rl {
						continue // Wide I/O: edge TSVs require the RDL (§6.1)
					}
					for _, wb := range []bool{false, true} {
						out = append(out, combo{TL: tl, TD: td, BD: bd, RL: rl, WB: wb})
					}
				}
			}
		}
	}
	return out
}

// measure runs the R-Mesh on one candidate and returns its worst-case max
// IR in mV and the number of solves it took. The worst state differs by
// bonding (§5.1): F2B peaks at 0-0-0-2 with full I/O, while F2F's PDN
// sharing makes the intra-pair overlapping 0-0-2-2 state (50 % I/O per
// die) the worst case; both states are evaluated and the maximum taken.
func (o *Optimizer) measure(c Candidate) (float64, int, error) {
	spec := c.Apply(o.Bench.Spec)
	if o.MeshPitch > 0 {
		spec.MeshPitch = o.MeshPitch
	}
	var logic = o.Bench.LogicPower
	if !spec.OnLogic {
		logic = nil
	}
	a, err := irdrop.NewObs(spec, o.Bench.DRAMPower, logic, o.Obs)
	if err != nil {
		return 0, 0, err
	}
	n := spec.NumDRAM
	worst := 0.0
	states := [][]int{topDie(n, 2)}
	ios := []float64{o.Bench.DefaultIO}
	if n >= 2 {
		states = append(states, topTwoDies(n, 2))
		ios = append(ios, 0.5)
	}
	for i, counts := range states {
		r, err := a.AnalyzeCounts(counts, ios[i])
		if err != nil {
			return 0, 0, err
		}
		if r.MaxIRmV() > worst {
			worst = r.MaxIRmV()
		}
	}
	return worst, len(states), nil
}

func topDie(n, banks int) []int {
	c := make([]int, n)
	c[n-1] = banks
	return c
}

func topTwoDies(n, banks int) []int {
	c := make([]int, n)
	c[n-1], c[n-2] = banks, banks
	return c
}

// features maps the continuous axes to the regression feature vector. IR
// drop scales like resistance, so reciprocal usages and a saturating TSV
// term describe it well; log-response keeps the model multiplicative.
func features(m2, m3 float64, tc int) []float64 {
	s := math.Sqrt(float64(tc))
	return []float64{
		1,
		1 / m2,
		1 / m3,
		1 / (m2 * m3),
		1 / s,
		1 / float64(tc),
	}
}

// axisSamples spreads n samples over [lo, hi] inclusive.
func axisSamples(lo, hi float64, n int) []float64 {
	if n == 1 || units.SameValue(hi, lo) {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// FitModels samples the design space and fits one regression per
// categorical combo, fanning combos across the worker pool (every combo's
// samples use an independent analyzer, so they parallelize cleanly). It
// must run before Best.
func (o *Optimizer) FitModels() error {
	span := o.Obs.Trace().Span("opt/fit-models", obs.A("bench", o.Bench.Name))
	defer span.End()
	sp := o.Bench.Space
	n := o.samplesPerAxis()
	m2s := axisSamples(sp.M2Range[0], sp.M2Range[1], n)
	m3s := axisSamples(sp.M3Range[0], sp.M3Range[1], n)
	tcs := tcSamples(sp.TSVRange, n+1)

	combos := o.combos()
	fits := make([]*regress.Fit, len(combos))
	solves := make([]int, len(combos))
	err := par.Sweep(o.Workers, len(combos), func(ci int) error {
		cb := combos[ci]
		var samples []regress.Sample
		for _, m2 := range m2s {
			for _, m3 := range m3s {
				for _, tc := range tcs {
					cand := Candidate{M2: m2, M3: m3, TC: tc,
						TL: cb.TL, TD: cb.TD, BD: cb.BD, RL: cb.RL, WB: cb.WB}
					ir, n, err := o.measure(cand)
					if err != nil {
						return fmt.Errorf("opt: sampling %v: %w", cand, err)
					}
					solves[ci] += n
					samples = append(samples, regress.Sample{
						X: features(m2, m3, tc),
						Y: math.Log(ir),
					})
				}
			}
		}
		fit, err := regress.LeastSquares(samples)
		if err != nil {
			return fmt.Errorf("opt: fitting combo %s: %w", cb.key(), err)
		}
		fits[ci] = fit
		return nil
	})
	if err != nil {
		return err
	}
	o.fits = map[string]*regress.Fit{}
	o.FitRMSE = 0
	o.FitR2 = 1
	o.FitSamples = 0
	for ci, cb := range combos {
		fit := fits[ci]
		o.fits[cb.key()] = fit
		o.FitSamples += solves[ci]
		// Track worst-case quality in mV-comparable units: convert the
		// log-space RMSE to a relative error and scale by the combo's
		// median response.
		if fit.RMSE > o.FitRMSE {
			o.FitRMSE = fit.RMSE
		}
		if fit.R2 < o.FitR2 {
			o.FitR2 = fit.R2
		}
	}
	return nil
}

// tcSamples picks n TSV-count samples over r inclusive, geometrically
// spaced because the IR response saturates. One sample is r's low end.
func tcSamples(r [2]int, n int) []int {
	if n == 1 || r[0] == r[1] {
		return []int{r[0]}
	}
	lo, hi := float64(r[0]), float64(r[1])
	out := make([]int, 0, n)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		v := int(lo*math.Pow(hi/lo, float64(i)/float64(n-1)) + 0.5)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// GridSize returns the number of distinct design points the fitted models
// cover in a Best search — the brute-force equivalent count.
func (o *Optimizer) GridSize() int {
	sp := o.Bench.Space
	g := o.gridSteps()
	tcs := len(tcSamples(sp.TSVRange, g))
	m2 := g
	if units.SameValue(sp.M2Range[0], sp.M2Range[1]) {
		m2 = 1
	}
	m3 := g
	if units.SameValue(sp.M3Range[0], sp.M3Range[1]) {
		m3 = 1
	}
	return len(o.combos()) * m2 * m3 * tcs
}

// Result is one optimized design point.
type Result struct {
	// Alpha is the IR-cost exponent used.
	Alpha float64
	// Cand is the winning candidate.
	Cand Candidate
	// PredIRmV is the regression model's prediction ("Matlab" column).
	PredIRmV float64
	// MeasIRmV is the R-Mesh verification ("R-Mesh" column).
	MeasIRmV float64
	// Cost is the Table 8 cost.
	Cost float64
	// Solves is the number of R-Mesh solves behind MeasIRmV.
	Solves int
}

// Best searches the whole design space with the fitted models for the
// minimum IR-cost at the given alpha and verifies the winner on the R-Mesh.
func (o *Optimizer) Best(alpha float64) (*Result, error) {
	if o.fits == nil {
		return nil, fmt.Errorf("opt: FitModels must run first")
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("opt: alpha %g out of [0,1]", alpha)
	}
	sp := o.Bench.Space
	g := o.gridSteps()
	m2s := axisSamples(sp.M2Range[0], sp.M2Range[1], g)
	m3s := axisSamples(sp.M3Range[0], sp.M3Range[1], g)
	tcs := tcSamples(sp.TSVRange, g)
	cm := cost.Default()

	best := Result{Alpha: alpha}
	bestScore := math.Inf(1)
	for _, cb := range o.combos() {
		fit := o.fits[cb.key()]
		for _, m2 := range m2s {
			for _, m3 := range m3s {
				for _, tc := range tcs {
					cand := Candidate{M2: m2, M3: m3, TC: tc,
						TL: cb.TL, TD: cb.TD, BD: cb.BD, RL: cb.RL, WB: cb.WB}
					irMV := math.Exp(fit.Predict(features(m2, m3, tc)))
					c, err := cm.Total(cand.Apply(o.Bench.Spec))
					if err != nil {
						return nil, err
					}
					score := cost.IRCost(irMV, c, alpha)
					if score < bestScore {
						bestScore = score
						best.Cand = cand
						best.PredIRmV = irMV
						best.Cost = c
					}
				}
			}
		}
	}
	meas, n, err := o.measure(best.Cand)
	if err != nil {
		return nil, err
	}
	best.MeasIRmV, best.Solves = meas, n
	return &best, nil
}

// Baseline evaluates the benchmark's baseline configuration in the same
// terms as Best (for Table 9's "Baseline" rows).
func (o *Optimizer) Baseline() (*Result, error) {
	s := o.Bench.Spec
	cand := Candidate{
		M2: s.Usage["M2"], M3: s.Usage["M3"], TC: s.TSVCount,
		TL: s.TSVStyle, TD: s.DedicatedTSV, BD: s.Bonding,
		RL: s.RDL != pdn.RDLNone, WB: s.WireBond,
	}
	meas, n, err := o.measure(cand)
	if err != nil {
		return nil, err
	}
	c, err := cost.Default().Total(cand.Apply(s))
	if err != nil {
		return nil, err
	}
	return &Result{Cand: cand, PredIRmV: meas, MeasIRmV: meas, Cost: c, Solves: n}, nil
}
