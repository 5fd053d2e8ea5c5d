package main

import (
	"errors"
	"fmt"
	"time"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/exp"
	"pdn3d/internal/obs"
	"pdn3d/internal/par"
	"pdn3d/internal/report"
)

// sweepExps are the design-sweep experiments, in cmd/tables order: about
// 40 distinct topologies with one to seven solves each.
var sweepExps = []struct {
	id  string
	run func(r *exp.Runner) (string, error)
}{
	{"fig4", func(r *exp.Runner) (string, error) {
		_, v, err := r.Figure4()
		if err != nil {
			return "", err
		}
		// The table's runtime and speedup cells are wall-clock; only the
		// accuracy half is an answer.
		return fmt.Sprintf("nodes %d %d\nmax_ir_mv %.4f %.4f\nerr_pct %.4f\n",
			v.CoarseNodes, v.FineNodes, v.CoarseIR*1000, v.FineIR*1000, v.ErrPct), nil
	}},
	{"metal", func(r *exp.Runner) (string, error) { return tableText(r.MetalUsageStudy()) }},
	{"mounting", func(r *exp.Runner) (string, error) { return tableText(r.MountingStudy()) }},
	{"fig5", func(r *exp.Runner) (string, error) {
		s, err := r.Figure5()
		if err != nil {
			return "", err
		}
		return s.String(), nil
	}},
	{"table2", func(r *exp.Runner) (string, error) { return tableText(r.Table2()) }},
	{"table3", func(r *exp.Runner) (string, error) { return tableText(r.Table3()) }},
	{"table4", func(r *exp.Runner) (string, error) { return tableText(r.Table4()) }},
	{"table7", func(r *exp.Runner) (string, error) { return tableText(r.Table7()) }},
}

func tableText(t *report.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// designSweep is the many-designs exploration: one cold exp.Runner runs
// every sweepExps experiment at full fidelity. Set-up is the cold set-up
// of the two stacks the sweep derives its designs from.
func designSweep(c *config, o *outcome) error {
	off, err := bench3d.StackedDDR3Off()
	if err != nil {
		return err
	}
	on, err := bench3d.StackedDDR3On()
	if err != nil {
		return err
	}
	for i := 0; i < c.setups; i++ {
		d1, err := timedSetup(withPitch(off.Spec, c.pitch), off.DRAMPower, nil)
		if err != nil {
			return err
		}
		d2, err := timedSetup(withPitch(on.Spec, c.pitch), on.DRAMPower, on.LogicPower)
		if err != nil {
			return err
		}
		o.setup = append(o.setup, d1+d2)
	}
	c.repeat(o, func() (repetition, error) {
		var reg *obs.Registry
		if c.trace {
			reg = obs.NewRegistry()
		}
		r := exp.NewRunner(exp.Config{MeshPitch: c.pitch, Requests: c.requests, Obs: reg})
		L := map[string]float64{}
		texts := make([]string, len(sweepExps))
		errs := make([]error, len(sweepExps))
		t0 := time.Now()
		for i, e := range sweepExps {
			ts := time.Now()
			texts[i], errs[i] = e.run(r)
			L["exp."+e.id+"_s"] = since(ts)
		}
		wall := since(t0)
		for i, e := range sweepExps {
			if errs[i] == nil {
				errs[i] = c.check.text("design-sweep/"+e.id, texts[i])
			}
		}
		o.op(errors.Join(errs...))
		if !c.trace {
			return repetition{wall: wall}, nil
		}
		snap := reg.Snapshot()
		registryRows(L, snap)
		var staged float64
		for _, e := range sweepExps {
			staged += L["exp."+e.id+"_s"]
		}
		L["stage.exp_s"] = staged
		L["par.utilization"] = snap.Timers["exp.sweep.busy"].Seconds / (float64(par.Workers(0)) * wall)
		closeStages(L, wall)
		return repetition{wall: wall, layers: L}, nil
	})
	return nil
}
