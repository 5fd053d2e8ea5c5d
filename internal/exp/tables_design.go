package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/cost"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/report"
)

// Table1 renders the benchmark specification summary (paper Table 1).
func (r *Runner) Table1() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table1")
	defer sp.End()
	t := &report.Table{
		Title:  "Table 1: benchmark specifications",
		Header: []string{"benchmark", "dies", "die (mm)", "banks/die", "stand-alone", "host die", "VDD (V)"},
	}
	bs, err := bench3d.All()
	if err != nil {
		return nil, err
	}
	for _, b := range bs {
		host := "-"
		standalone := "yes"
		if b.Spec.OnLogic {
			standalone = "no"
			host = fmt.Sprintf("%s %.1fx%.1f", b.Spec.Logic.Name, b.Spec.Logic.Outline.W(), b.Spec.Logic.Outline.H())
		}
		t.AddRow(b.Name, b.Spec.NumDRAM,
			fmt.Sprintf("%.1fx%.1f", b.Spec.DRAM.Outline.W(), b.Spec.DRAM.Outline.H()),
			b.Spec.DRAM.NumBanks, standalone, host, b.Spec.DRAMTech.VDD)
	}
	return t, nil
}

// MetalUsageStudy reproduces the §3 opening observation: doubling the PDN
// metal usage cuts the stacked-DDR3 IR drop by more than 40 %.
func (r *Runner) MetalUsageStudy() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/metal-usage")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	base := r.prepare(b.Spec)
	dbl := base.Clone()
	dbl.Usage["M2"] = 2 * base.Usage["M2"]
	dbl.Usage["M3"] = 2 * base.Usage["M3"]

	t := &report.Table{
		Title:  "Sec. 3: PDN metal usage impact (off-chip stacked DDR3, 0-0-0-2)",
		Header: []string{"PDN metal", "M2/M3 usage", "max IR (mV)", "vs baseline"},
	}
	specs := []*pdn.Spec{base, dbl}
	results, err := sweep(r, len(specs), func(i int) (*irdrop.Result, error) {
		return r.analyze(b, specs[i], defaultState(b), b.DefaultIO)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		label, rel := "1x", "-"
		if i > 0 {
			label = "2x"
			rel = report.Pct(results[0].MaxIR, res.MaxIR)
		}
		t.AddRow(label, fmt.Sprintf("%.0f%%/%.0f%%", specs[i].Usage["M2"]*100, specs[i].Usage["M3"]*100),
			res.MaxIRmV(), rel)
	}
	t.Notes = append(t.Notes, "paper: 2x PDN metal reduces IR drop by more than 40%")
	return t, nil
}

// MountingStudy reproduces §3.1: mounting the stack on the logic die
// couples the PDNs and raises the DRAM IR drop from ~30 to ~64 mV under a
// ~50 mV logic noise.
func (r *Runner) MountingStudy() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/mounting")
	defer sp.End()
	off, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	on, err := bench3d.StackedDDR3On()
	if err != nil {
		return nil, err
	}
	onSpec := r.prepare(on.Spec)
	onSpec.DedicatedTSV = false

	rOff, err := r.analyze(off, r.prepare(off.Spec), defaultState(off), off.DefaultIO)
	if err != nil {
		return nil, err
	}
	rOn, err := r.analyze(on, onSpec, defaultState(on), on.DefaultIO)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:  "Sec. 3.1: stand-alone vs. mounted on the logic die (stacked DDR3, 0-0-0-2)",
		Header: []string{"design", "DRAM max IR (mV)", "logic noise (mV)"},
	}
	t.AddRow("off-chip", rOff.MaxIRmV(), "-")
	t.AddRow("on-chip (coupled)", rOn.MaxIRmV(), rOn.LogicIRmV())
	t.Notes = append(t.Notes, "paper: 30.03 -> 64.41 mV with 50.05 mV logic noise")
	return t, nil
}

// Table2 compares the TSV-location and RDL options of Figure 6 on the
// off-chip stacked DDR3 (paper Table 2).
func (r *Runner) Table2() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table2")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	cm := cost.Default()
	options := []struct {
		name  string
		mut   func(*pdn.Spec)
		paper float64
	}{
		{"(a) edge TSV", func(s *pdn.Spec) {}, 30.03},
		{"(b) center TSV", func(s *pdn.Spec) { s.TSVStyle = pdn.CenterTSV }, 50.76},
		{"(c) edge TSV + RDL", func(s *pdn.Spec) { s.RDL = pdn.RDLInterface }, 38.46},
		{"(d) center TSV + RDL", func(s *pdn.Spec) { s.TSVStyle = pdn.CenterTSV; s.RDL = pdn.RDLInterface }, 49.36},
	}
	t := &report.Table{
		Title:  "Table 2: TSV location and RDL options (off-chip stacked DDR3)",
		Header: []string{"design option", "max IR (mV)", "paper (mV)", "cost"},
	}
	type row struct {
		ir   float64
		cost float64
	}
	rows, err := sweep(r, len(options), func(i int) (row, error) {
		spec := r.prepare(b.Spec)
		options[i].mut(spec)
		res, err := r.analyze(b, spec, defaultState(b), b.DefaultIO)
		if err != nil {
			return row{}, err
		}
		c, err := cm.Total(spec)
		if err != nil {
			return row{}, err
		}
		return row{ir: res.MaxIRmV(), cost: c}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range options {
		t.AddRow(o.name, rows[i].ir, o.paper, fmt.Sprintf("%.3f", rows[i].cost))
	}
	return t, nil
}

// Table3 measures the impact of dedicated TSVs and backside wire bonding
// (paper Table 3).
func (r *Runner) Table3() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table3")
	defer sp.End()
	off, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	on, err := bench3d.StackedDDR3On()
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name      string
		bench     *bench3d.Benchmark
		dedicated bool
		paperBase float64
		paperWB   float64
	}{
		{"on-chip, no dedicated", on, false, 64.41, 30.04},
		{"on-chip, dedicated", on, true, 31.18, 27.18},
		{"off-chip", off, false, 30.03, 27.10},
	}
	t := &report.Table{
		Title:  "Table 3: impact of dedicated TSVs and wire bonding (stacked DDR3)",
		Header: []string{"design", "baseline (mV)", "wire-bonded (mV)", "delta", "paper"},
	}
	irs, err := sweep(r, len(rows), func(i int) ([2]float64, error) {
		row := rows[i]
		spec := r.prepare(row.bench.Spec)
		spec.DedicatedTSV = row.dedicated && spec.OnLogic
		wbSpec := spec.Clone()
		wbSpec.WireBond = true
		var out [2]float64
		for j, s := range []*pdn.Spec{spec, wbSpec} {
			res, err := r.analyze(row.bench, s, defaultState(row.bench), row.bench.DefaultIO)
			if err != nil {
				return out, err
			}
			out[j] = res.MaxIRmV()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		t.AddRow(row.name, irs[i][0], irs[i][1], report.Pct(irs[i][0], irs[i][1]),
			fmt.Sprintf("%.2f -> %.2f", row.paperBase, row.paperWB))
	}
	return t, nil
}

// Table4 studies intra-pair overlapping under F2F bonding for the Figure 8
// placement cases (paper Table 4). Two-die interleaving states share the
// bus, so each die runs at 50 % I/O activity.
func (r *Runner) Table4() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table4")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	f2b := r.prepare(b.Spec)
	f2f := f2b.Clone()
	f2f.Bonding = pdn.F2F

	cases := []struct {
		name    string
		state   memstate.State
		overlap string
		paper   [2]float64 // F2B, F2F+B2B
	}{
		{"0-0-2a-2a", memstate.MustPairState("", "", memstate.PairA, memstate.PairA), "yes", [2]float64{28.14, 27.21}},
		{"0-0-2b-2b", memstate.MustPairState("", "", memstate.PairB, memstate.PairB), "yes", [2]float64{18.06, 17.42}},
		{"0-2a-0-2a", memstate.MustPairState("", memstate.PairA, "", memstate.PairA), "no", [2]float64{27.32, 15.24}},
		{"2a-0-0-2a", memstate.MustPairState(memstate.PairA, "", "", memstate.PairA), "no", [2]float64{26.51, 15.24}},
		{"0-0-2b-2a", memstate.MustPairState("", "", memstate.PairB, memstate.PairA), "no", [2]float64{27.38, 17.98}},
		{"0-0-2c-2a", memstate.MustPairState("", "", memstate.PairC, memstate.PairA), "no", [2]float64{27.04, 17.10}},
		{"0-0-2d-2a", memstate.MustPairState("", "", memstate.PairD, memstate.PairA), "no", [2]float64{26.86, 15.27}},
	}
	t := &report.Table{
		Title:  "Table 4: intra-pair overlapping under F2F (stacked DDR3, two-bank interleaving)",
		Header: []string{"memory state", "overlap", "F2B (mV)", "F2F+B2B (mV)", "delta", "paper F2B/F2F"},
	}
	type pair struct{ b, f *irdrop.Result }
	results, err := sweep(r, len(cases), func(i int) (pair, error) {
		c := cases[i]
		if got := memstate.IntraPairOverlap(c.state); got != (c.overlap == "yes") {
			return pair{}, fmt.Errorf("exp: case %s overlap classification mismatch", c.name)
		}
		rB, err := r.analyze(b, f2b, c.state, 0.5)
		if err != nil {
			return pair{}, err
		}
		rF, err := r.analyze(b, f2f, c.state, 0.5)
		if err != nil {
			return pair{}, err
		}
		return pair{b: rB, f: rF}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		rB, rF := results[i].b, results[i].f
		t.AddRow(c.name, c.overlap, rB.MaxIRmV(), rF.MaxIRmV(),
			report.Pct(rB.MaxIR, rF.MaxIR),
			fmt.Sprintf("%.2f/%.2f", c.paper[0], c.paper[1]))
	}
	return t, nil
}

// Table5 measures memory-state and I/O-activity impact on power and IR
// drop for F2B and F2F off-chip stacked DDR3 (paper Table 5).
func (r *Runner) Table5() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table5")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	f2b := r.prepare(b.Spec)
	f2f := f2b.Clone()
	f2f.Bonding = pdn.F2F

	rows := []struct {
		counts []int
		io     float64
		paper  [2]float64
	}{
		{[]int{0, 0, 0, 2}, 1.00, [2]float64{30.03, 17.18}},
		{[]int{2, 0, 0, 0}, 1.00, [2]float64{26.26, 14.61}},
		{[]int{0, 0, 0, 2}, 0.50, [2]float64{26.42, 15.15}},
		{[]int{0, 0, 2, 2}, 0.50, [2]float64{28.14, 27.21}},
		{[]int{0, 0, 0, 2}, 0.25, [2]float64{22.93, 13.23}},
		{[]int{2, 2, 2, 2}, 0.25, [2]float64{24.82, 23.57}},
	}
	t := &report.Table{
		Title:  "Table 5: memory state and I/O activity (off-chip stacked DDR3)",
		Header: []string{"state", "IO/die", "active die (mW)", "total (mW)", "F2B (mV)", "F2F+B2B (mV)", "paper F2B/F2F"},
	}
	type pair struct {
		st     memstate.State
		rB, rF *irdrop.Result
	}
	results, err := sweep(r, len(rows), func(i int) (pair, error) {
		row := rows[i]
		st, err := memstate.FromCounts(row.counts, memstate.WorstCaseEdge(b.Spec.DRAM.NumBanks))
		if err != nil {
			return pair{}, err
		}
		rB, err := r.analyze(b, f2b, st, row.io)
		if err != nil {
			return pair{}, err
		}
		rF, err := r.analyze(b, f2f, st, row.io)
		if err != nil {
			return pair{}, err
		}
		return pair{st: st, rB: rB, rF: rF}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		res := results[i]
		t.AddRow(res.st.String(), fmt.Sprintf("%.0f%%", row.io*100),
			fmt.Sprintf("%.1f", res.rB.ActiveDiePower), fmt.Sprintf("%.1f", res.rB.TotalPower),
			res.rB.MaxIRmV(), res.rF.MaxIRmV(),
			fmt.Sprintf("%.2f/%.2f", row.paper[0], row.paper[1]))
	}
	return t, nil
}
