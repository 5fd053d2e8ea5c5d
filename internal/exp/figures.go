package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/report"
)

// Figure4 validates the production R-Mesh against the refined-mesh golden
// reference on the 2D DDR3 design, in the spirit of the paper's R-Mesh vs.
// Cadence EPS comparison (max IR 32.2 vs. 32.6 mV, 1.3 % error, 517x
// speedup). The two left banks run the interleaving read.
func (r *Runner) Figure4() (*report.Table, *irdrop.Validation, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/figure4")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, nil, err
	}
	spec := irdrop.SingleDie2D(r.prepare(b.Spec))
	// Left two banks (column 0: banks 4 and 6 in the upper-left rows).
	state := memstate.State{Dies: [][]int{{4, 6}}}
	v, err := irdrop.Validate(spec, b.DRAMPower, nil, state, 1.0)
	if err != nil {
		return nil, nil, err
	}
	t := &report.Table{
		Title:  "Figure 4: R-Mesh validation against the refined-mesh reference (2D DDR3)",
		Header: []string{"model", "nodes", "max IR (mV)", "runtime"},
	}
	t.AddRow("reference (2x refined)", v.FineNodes, v.FineIR*1000, v.FineTime.Round(1e6).String())
	t.AddRow("R-Mesh", v.CoarseNodes, v.CoarseIR*1000, v.CoarseTime.Round(1e6).String())
	t.AddRow("error / speedup", "-", fmt.Sprintf("%.2f%%", v.ErrPct), fmt.Sprintf("%.0fx", v.Speedup))
	t.Notes = append(t.Notes, "paper: EPS 32.6 mV vs R-Mesh 32.2 mV, 1.3% error, 517x speedup")
	return t, v, nil
}

// Figure5 sweeps the PG TSV count for the off-chip and on-chip stacked
// DDR3, with and without C4 alignment (paper Figure 5(b)): more TSVs
// saturate, and aligning TSVs to C4 bumps removes the lateral detour
// through the logic die (up to ~51.5 % in the paper).
func (r *Runner) Figure5() (*report.Series, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/figure5")
	defer sp.End()
	off, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	on, err := bench3d.StackedDDR3On()
	if err != nil {
		return nil, err
	}
	tsvCounts := []int{15, 33, 60, 120, 240, 480}
	s := &report.Series{
		Title:  "Figure 5: TSV count and alignment impact (stacked DDR3, 0-0-0-2, max IR mV)",
		XLabel: "TSV count",
		YLabel: "max IR drop (mV)",
		Names:  []string{"off-chip", "on-chip misaligned", "on-chip aligned"},
		Y:      make([][]float64, 3),
	}
	results, err := sweep(r, len(tsvCounts), func(i int) ([3]float64, error) {
		tc := tsvCounts[i]
		var out [3]float64

		offSpec := r.prepare(off.Spec)
		offSpec.TSVCount = tc
		rOff, err := r.analyze(off, offSpec, defaultState(off), off.DefaultIO)
		if err != nil {
			return out, err
		}
		out[0] = rOff.MaxIRmV()

		for j, aligned := range []bool{false, true} {
			onSpec := r.prepare(on.Spec)
			onSpec.DedicatedTSV = false
			onSpec.TSVCount = tc
			onSpec.AlignTSV = aligned
			res, err := r.analyze(on, onSpec, defaultState(on), on.DefaultIO)
			if err != nil {
				return out, err
			}
			out[1+j] = res.MaxIRmV()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range tsvCounts {
		s.X = append(s.X, float64(tc))
		for k := 0; k < 3; k++ {
			s.Y[k] = append(s.Y[k], results[i][k])
		}
	}
	return s, nil
}

// Figure9Case is one of the Table 7 design cases driving Figure 9.
type Figure9Case struct {
	// Label is the case number and summary.
	Label string
	// Mut derives the case's spec from the benchmark baselines.
	OnChip   bool
	Bonding  pdn.Bonding
	Metal    float64 // PDN metal multiplier (1.0 or 1.5)
	WireBond bool
	// PaperIR is Table 7's max IR for the case.
	PaperIR float64
}

// Table7Cases returns the six design cases of Table 7.
func Table7Cases() []Figure9Case {
	return []Figure9Case{
		{Label: "1: off F2B 1x", OnChip: false, Bonding: pdn.F2B, Metal: 1.0, PaperIR: 30.03},
		{Label: "2: off F2B 1.5x", OnChip: false, Bonding: pdn.F2B, Metal: 1.5, PaperIR: 22.15},
		{Label: "3: off F2F 1x", OnChip: false, Bonding: pdn.F2F, Metal: 1.0, PaperIR: 17.18},
		{Label: "4: on F2B 1x", OnChip: true, Bonding: pdn.F2B, Metal: 1.0, PaperIR: 64.41},
		{Label: "5: on F2B 1x WB", OnChip: true, Bonding: pdn.F2B, Metal: 1.0, WireBond: true, PaperIR: 30.04},
		{Label: "6: on F2F 1x", OnChip: true, Bonding: pdn.F2F, Metal: 1.0, PaperIR: 65.43},
	}
}

// caseSpec builds the benchmark and spec for one Table 7 case.
func (r *Runner) caseSpec(c Figure9Case) (*bench3d.Benchmark, *pdn.Spec, error) {
	var b *bench3d.Benchmark
	var err error
	if c.OnChip {
		b, err = bench3d.StackedDDR3On()
	} else {
		b, err = bench3d.StackedDDR3Off()
	}
	if err != nil {
		return nil, nil, err
	}
	spec := r.prepare(b.Spec)
	spec.DedicatedTSV = false
	spec.Bonding = c.Bonding
	spec.WireBond = c.WireBond
	spec.Usage["M2"] *= c.Metal
	spec.Usage["M3"] *= c.Metal
	return b, spec, nil
}

// Table7 evaluates the six design cases' maximum IR drops. A case whose
// solve fails renders as an ERR cell; the partial table is returned
// alongside the aggregated error.
func (r *Runner) Table7() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table7")
	defer sp.End()
	t := &report.Table{
		Title:  "Table 7: design cases for the IR-drop vs. performance study",
		Header: []string{"case", "max IR (mV)", "paper (mV)"},
	}
	cases := Table7Cases()
	irs, cellErrs, sweepErr := sweepCells(r, len(cases), func(i int) (float64, error) {
		b, spec, err := r.caseSpec(cases[i])
		if err != nil {
			return 0, err
		}
		res, err := r.analyze(b, spec, defaultState(b), b.DefaultIO)
		if err != nil {
			return 0, err
		}
		return res.MaxIRmV(), nil
	})
	for i, c := range cases {
		if cellErrs[i] != nil {
			t.AddRow(c.Label, "ERR", c.PaperIR)
			continue
		}
		t.AddRow(c.Label, irs[i], c.PaperIR)
	}
	r.Cfg.Obs.Counter("exp.cells_failed").Add(int64(countErrs(cellErrs)))
	return t, sweepErr
}

// Figure9 sweeps the IR-drop constraint and reports the DistR runtime for
// every Table 7 case (paper Figure 9): tighter constraints forbid memory
// states and stretch runtime; designs with lower IR tolerate tighter
// constraints, and the F2F design crosses over the 1.5x-metal design below
// ~18 mV thanks to PDN sharing at low bank activities.
func (r *Runner) Figure9(constraintsMV []float64) (*report.Series, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/figure9")
	defer sp.End()
	if len(constraintsMV) == 0 {
		constraintsMV = []float64{14, 16, 18, 20, 22, 24, 26, 28, 30}
	}
	cases := Table7Cases()
	s := &report.Series{
		Title:  "Figure 9: runtime vs. IR-drop constraint (10k reads, DistR; 0 = no state allowed)",
		XLabel: "constraint (mV)",
		YLabel: "runtime (us)",
		Y:      make([][]float64, len(cases)),
	}
	for _, c := range cases {
		s.Names = append(s.Names, c.Label)
	}
	for _, mv := range constraintsMV {
		s.X = append(s.X, mv)
	}
	rows, err := sweep(r, len(cases), func(ci int) ([]float64, error) {
		b, spec, err := r.caseSpec(cases[ci])
		if err != nil {
			return nil, err
		}
		table, err := r.lutFor(b, spec)
		if err != nil {
			return nil, err
		}
		out := make([]float64, 0, len(constraintsMV))
		for _, mv := range constraintsMV {
			// Feasibility first: if even a lone single-bank activation
			// violates the constraint, no memory state is allowed and the
			// workload cannot run (paper: runtime -> infinity). Report 0.
			counts := make([]int, spec.NumDRAM)
			counts[len(counts)-1] = 1
			ir, err := table.MaxIR(counts, 1.0)
			if err != nil {
				return nil, err
			}
			if ir > mv/1000 {
				out = append(out, 0)
				continue
			}
			bb := *b
			bb.Spec = spec
			run, err := r.policyRun(&bb, table, memctrl.PolicyIRAware, memctrl.DistR, mv/1000)
			if err != nil {
				return nil, err
			}
			out = append(out, run.RuntimeUS)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	copy(s.Y, rows)
	return s, nil
}
