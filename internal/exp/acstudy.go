package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/memstate"
	"pdn3d/internal/report"
	"pdn3d/internal/transient"
)

// ACStudy quantifies the paper's closing AC claim (§4.1): bond wires give
// the off-chip decoupling capacitors a direct path into the stack, so the
// supply droop after an activation step develops more slowly. The study
// steps an idle off-chip stacked DDR3 into the 0-0-0-2 full-rate state and
// tracks the worst droop over time for three designs: baseline, wire-bonded,
// and wire-bonded with 100 nF decaps behind every wire.
func (r *Runner) ACStudy() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/ac-droop")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	type design struct {
		name     string
		wirebond bool
		decaps   bool
	}
	designs := []design{
		{"baseline", false, false},
		{"wire-bonded", true, false},
		{"wire-bonded + decaps", true, true},
	}
	cfg := transient.DefaultConfig()
	sampleSteps := []int{2, 4, 8, 16, 32, 80}
	t := &report.Table{
		Title:  "Extension (paper sec 4.1 AC claim): supply droop after an activation step",
		Header: []string{"design"},
	}
	for _, k := range sampleSteps {
		t.Header = append(t.Header, fmt.Sprintf("%.1f ns", float64(k)*cfg.Dt*1e9))
	}
	t.Header = append(t.Header, "DC (mV)")

	idleState := memstate.State{Dies: make([][]int, b.Spec.NumDRAM)}
	type outcome struct {
		curve []float64
		dcMV  float64
	}
	results, err := sweep(r, len(designs), func(i int) (outcome, error) {
		d := designs[i]
		spec := r.prepare(b.Spec)
		spec.WireBond = d.wirebond
		a, err := r.analyzer(b, spec)
		if err != nil {
			return outcome{}, err
		}
		idle, err := a.LoadedRHS(idleState, 0.25)
		if err != nil {
			return outcome{}, err
		}
		active, err := a.LoadedRHS(defaultState(b), b.DefaultIO)
		if err != nil {
			return outcome{}, err
		}
		c := cfg
		if d.decaps {
			c.Decaps = transient.WireDecaps(a.Model, 100e-9, 0.05)
		}
		sim, err := transient.New(a.Model, c, idle)
		if err != nil {
			return outcome{}, err
		}
		curve, err := sim.Run(active, sampleSteps[len(sampleSteps)-1])
		if err != nil {
			return outcome{}, err
		}
		dc, err := r.analyze(b, spec, defaultState(b), b.DefaultIO)
		if err != nil {
			return outcome{}, err
		}
		return outcome{curve: curve, dcMV: dc.MaxIRmV()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, d := range designs {
		row := []interface{}{d.name}
		for _, k := range sampleSteps {
			row = append(row, fmt.Sprintf("%.2f", results[i].curve[k-1]*1000))
		}
		row = append(row, fmt.Sprintf("%.2f", results[i].dcMV))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"droop in mV after an idle -> 0-0-0-2@100% step; backward-Euler RC transient",
		"decaps: 100 nF behind every bond wire — the off-chip capacitors of the paper's AC remark")
	return t, nil
}
