package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/exp"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/lut"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/memstate"
	"pdn3d/internal/par"
	"pdn3d/internal/pdn"
)

// lutPolicy is "factor once, solve many": a cold Table 6 at full
// fidelity — the ddr3-off IR-drop look-up table (81 states x 3 I/O
// levels on one matrix) followed by three memory-controller policy runs.
// The timed run calls exp.Runner.Table6; the traced run drives the same
// pipeline through each layer's public calls.
func lutPolicy(c *config, o *outcome) error {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return err
	}
	spec := withPitch(b.Spec, c.pitch)
	for i := 0; i < c.setups; i++ {
		d, err := timedSetup(spec, b.DRAMPower, nil)
		if err != nil {
			return err
		}
		o.setup = append(o.setup, d)
	}
	c.repeat(o, func() (repetition, error) {
		if c.trace {
			return lutPolicyTraced(c, o, b, spec)
		}
		r := exp.NewRunner(exp.Config{MeshPitch: c.pitch, Requests: c.requests})
		t0 := time.Now()
		tab, res, err := r.Table6()
		wall := since(t0)
		if err != nil {
			return repetition{}, err
		}
		o.op(errors.Join(
			c.check.text("lut-policy/table6", tab.String()),
			c.check.text("lut-policy/policies", renderPolicies(res.Standard, res.IRFCFS, res.IRDistR, res.EffLimitV))))
		return repetition{wall: wall}, nil
	})
	return nil
}

// table6Runs are Table 6's three (policy, scheduler) pairs; the
// IR-aware ones run under the constraint.
var table6Runs = []struct {
	policy  memctrl.IRPolicy
	sched   memctrl.Scheduler
	limited bool
}{
	{memctrl.PolicyStandard, memctrl.FCFS, false},
	{memctrl.PolicyIRAware, memctrl.FCFS, true},
	{memctrl.PolicyIRAware, memctrl.DistR, true},
}

// lutPolicyTraced is one Table 6 repetition driven layer by layer:
// set-up, the LUT sweep over the worker pool (each point stamped, solved
// and post-processed through public calls, as lut.BuildWith fans them
// out), then the policy runs (memctrl.Generate and memctrl.Simulate).
func lutPolicyTraced(c *config, o *outcome, b *bench3d.Benchmark, spec *pdn.Spec) (repetition, error) {
	L := map[string]float64{}
	workers := par.Workers(0)
	t0 := time.Now()
	a, err := tracedSetup(spec, b.DRAMPower, nil, L)
	if err != nil {
		return repetition{}, err
	}

	states := memstate.EnumerateCounts(spec.NumDRAM, memstate.MaxInterleavedBanks)
	levels := lut.DefaultIOLevels()
	pts := make([]lut.Point, len(states)*len(levels))
	calls := make([]call, len(pts))
	busy := make([]float64, len(states))
	ts := time.Now()
	err = par.Sweep(workers, len(states), func(i int) error {
		tb := time.Now()
		defer func() { busy[i] = since(tb) }()
		for li, io := range levels {
			k := i*len(levels) + li
			cl, perDie, err := tracedAnalyze(a, states[i], io)
			if err != nil {
				return err
			}
			calls[k] = cl
			pts[k] = lut.Point{Counts: states[i], IO: io, MaxIR: maxOf(perDie)}
		}
		return nil
	})
	sweepWall := since(ts)
	if err != nil {
		return repetition{}, err
	}
	table, err := lut.FromPoints(spec.NumDRAM, memstate.MaxInterleavedBanks, levels, pts)
	if err != nil {
		return repetition{}, err
	}
	lutWall := since(ts)

	// Table 6's constraint: 24 mV, raised to the coarse-mesh floor when a
	// lone single-bank activation would not fit.
	single := make([]int, spec.NumDRAM)
	single[len(single)-1] = 1
	floor, err := table.MaxIR(single, 1.0)
	if err != nil {
		return repetition{}, err
	}
	limit := exp.Table6IRLimitV
	if limit < floor*1.02 {
		limit = floor * 1.02
	}
	results := make([]*memctrl.Result, len(table6Runs))
	gen := make([]float64, len(table6Runs))
	sim := make([]float64, len(table6Runs))
	tp := time.Now()
	err = par.Sweep(workers, len(table6Runs), func(i int) error {
		run := table6Runs[i]
		lim := 0.0
		if run.limited {
			lim = limit
		}
		cfg := memctrl.DefaultConfig(run.policy, run.sched, table, lim)
		cfg.Dies = spec.NumDRAM
		cfg.BanksPerDie = spec.DRAM.NumBanks
		wl := memctrl.DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
		wl.Requests = c.requests
		tg := time.Now()
		reqs, err := memctrl.Generate(wl)
		gen[i] = since(tg)
		if err != nil {
			return err
		}
		tsim := time.Now()
		results[i], err = memctrl.Simulate(cfg, reqs)
		sim[i] = since(tsim)
		return err
	})
	policyWall := since(tp)
	wall := since(t0)
	if err != nil {
		return repetition{}, err
	}

	o.op(errors.Join(
		c.check.text("lut-policy/lut", renderLUT(table)),
		c.check.text("lut-policy/policies", renderPolicies(results[0], results[1], results[2], limit))))

	w := float64(workers)
	callRows(L, calls, workers)
	L["lut.build_s"] = lutWall
	L["lut.points"] = float64(table.Entries())
	L["memctrl.generate_ms"] = median(gen) * 1000
	L["memctrl.simulate_ms"] = median(sim) * 1000
	L["par.utilization"] = (sum(busy) + sum(gen) + sum(sim)) / (w * (sweepWall + policyWall))
	L["stage.memctrl_s"] = (sum(gen) + sum(sim)) / w
	L["stage.par_idle_s"] = sweepWall - sum(busy)/w + policyWall - (sum(gen)+sum(sim))/w
	closeStages(L, wall)
	return repetition{wall: wall, layers: L}, nil
}

// renderLUT renders every table point: state, I/O level, max IR in mV.
func renderLUT(t *lut.Table) string {
	var sb strings.Builder
	for _, p := range t.Points() {
		fmt.Fprintf(&sb, "%s %g %.4f\n", countsString(p.Counts), p.IO, p.MaxIR*1000)
	}
	return sb.String()
}

// renderPolicies renders the three Table 6 runs — runtime (us),
// bandwidth (reads per 1000 clocks), worst IR met (mV) — and the applied
// constraint (mV).
func renderPolicies(std, fcfs, distr *memctrl.Result, limitV float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "limit %.4f\n", limitV*1000)
	for i, r := range []*memctrl.Result{std, fcfs, distr} {
		fmt.Fprintf(&sb, "%s %.3f %.3f %.4f\n", []string{"standard/fcfs", "ir-aware/fcfs", "ir-aware/distr"}[i],
			r.RuntimeUS, r.Bandwidth*1000, r.MaxIR*1000)
	}
	return sb.String()
}

// lutGolden is the program's own LUT for the golden file: built with
// lut.BuildWith, independent of the traced run's layer-by-layer sweep.
func lutGolden(b *bench3d.Benchmark) (string, error) {
	a, err := irdrop.New(b.Spec, b.DRAMPower, nil)
	if err != nil {
		return "", err
	}
	t, err := lut.BuildWith(a, memstate.MaxInterleavedBanks, lut.DefaultIOLevels(), 0)
	if err != nil {
		return "", err
	}
	return renderLUT(t), nil
}
