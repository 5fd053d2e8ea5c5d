package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/report"
)

// Table6IRLimitV is the paper's IR-drop constraint for the IR-aware
// policies (24 mV).
const Table6IRLimitV = 0.024

// Table6Result carries the three policy runs behind Table 6.
type Table6Result struct {
	Standard, IRFCFS, IRDistR *memctrl.Result
	// EffLimitV is the constraint actually applied (24 mV, or the
	// coarse-mesh feasibility floor when higher).
	EffLimitV float64
}

// Table6 compares the three read policies on the F2B off-chip stacked DDR3
// (paper Table 6): the JEDEC standard policy, the IR-drop-aware FCFS
// policy, and the IR-drop-aware distributed-read policy, both at a 24 mV
// constraint.
func (r *Runner) Table6() (*report.Table, *Table6Result, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table6")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, nil, err
	}
	b.Spec = r.prepare(b.Spec)
	table, err := r.lutFor(b, b.Spec)
	if err != nil {
		return nil, nil, err
	}

	// The paper's 24 mV constraint, kept feasible when a coarsened mesh
	// shifts the LUT upward: a lone single-bank activation must fit or no
	// request can ever issue. At full fidelity the limit is exactly 24 mV.
	limit := Table6IRLimitV
	single := make([]int, b.Spec.NumDRAM)
	single[len(single)-1] = 1
	floor, err := table.MaxIR(single, 1.0)
	if err != nil {
		return nil, nil, err
	}
	if limit < floor*1.02 {
		limit = floor * 1.02
	}

	runs := []struct {
		policy memctrl.IRPolicy
		sched  memctrl.Scheduler
		limit  float64
	}{
		{memctrl.PolicyStandard, memctrl.FCFS, 0},
		{memctrl.PolicyIRAware, memctrl.FCFS, limit},
		{memctrl.PolicyIRAware, memctrl.DistR, limit},
	}
	results, err := sweep(r, len(runs), func(i int) (*memctrl.Result, error) {
		return r.policyRun(b, table, runs[i].policy, runs[i].sched, runs[i].limit)
	})
	if err != nil {
		return nil, nil, err
	}
	std, fcfs, distr := results[0], results[1], results[2]

	t := &report.Table{
		Title:  "Table 6: impact of architectural policy in stacked DDR3 (off-chip, F2B)",
		Header: []string{"metric", "Standard/FCFS", "IR-aware/FCFS", "IR-aware/DistR"},
	}
	t.AddRow("IR-drop constraint", "none", fmt.Sprintf("%.1fmV", limit*1000), fmt.Sprintf("%.1fmV", limit*1000))
	t.AddRow("Runtime (us)",
		fmt.Sprintf("%.2f", std.RuntimeUS),
		fmt.Sprintf("%.2f (%s)", fcfs.RuntimeUS, report.Pct(std.RuntimeUS, fcfs.RuntimeUS)),
		fmt.Sprintf("%.2f (%s)", distr.RuntimeUS, report.Pct(std.RuntimeUS, distr.RuntimeUS)))
	t.AddRow("Bandwidth (read/clk)",
		fmt.Sprintf("%.3f", std.Bandwidth),
		fmt.Sprintf("%.3f (%s)", fcfs.Bandwidth, report.Pct(std.Bandwidth, fcfs.Bandwidth)),
		fmt.Sprintf("%.3f (%s)", distr.Bandwidth, report.Pct(std.Bandwidth, distr.Bandwidth)))
	t.AddRow("Max IR drop (mV)",
		fmt.Sprintf("%.2f", std.MaxIR*1000),
		fmt.Sprintf("%.2f (%s)", fcfs.MaxIR*1000, report.Pct(std.MaxIR, fcfs.MaxIR)),
		fmt.Sprintf("%.2f (%s)", distr.MaxIR*1000, report.Pct(std.MaxIR, distr.MaxIR)))
	t.Notes = append(t.Notes,
		"paper: runtime 109.3 / 84.68 (-22.6%) / 75.85 (-30.6%) us",
		"paper: bandwidth 0.114 / 0.148 (+29.2%) / 0.165 (+44.2%) read/clk",
		"paper: max IR 30.03 / 23.98 (-20.2%) / 23.98 (-20.2%) mV")
	return t, &Table6Result{Standard: std, IRFCFS: fcfs, IRDistR: distr, EffLimitV: limit}, nil
}
