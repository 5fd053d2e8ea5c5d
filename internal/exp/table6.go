package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/lut"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/report"
)

// Table6IRLimitV is the paper's IR-drop constraint for the IR-aware
// policies (24 mV).
const Table6IRLimitV = 0.024

// Table6Result carries one three-policy comparison (comparePolicies):
// Table 6's, or one benchmark's in PolicyStudyAll.
type Table6Result struct {
	Standard, IRFCFS, IRDistR *memctrl.Result
	// EffLimitV is the constraint the IR-aware runs applied: the one
	// asked for (Table 6's 24 mV), or the feasibility floor when higher.
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
	res, err := r.comparePolicies(b, table, Table6IRLimitV)
	if err != nil {
		return nil, nil, err
	}
	std, fcfs, distr, limit := res.Standard, res.IRFCFS, res.IRDistR, res.EffLimitV

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
	return t, res, nil
}

// comparePolicies runs Table 6's three read policies on benchmark b's
// stack over its look-up table: the JEDEC standard policy, and the
// IR-aware policy under FCFS and under DistR at limitV. A limit under the
// feasibility floor, 1.02 × loneIR, is raised to it: a coarsened mesh
// shifts the table upward, and a lone single-bank activation must fit or
// no request can ever issue. At full fidelity Table 6's 24 mV stands.
func (r *Runner) comparePolicies(b *bench3d.Benchmark, table *lut.Table, limitV float64) (*Table6Result, error) {
	lone, err := loneIR(table)
	if err != nil {
		return nil, err
	}
	limit := max(limitV, lone*1.02)
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
		return nil, err
	}
	return &Table6Result{Standard: results[0], IRFCFS: results[1], IRDistR: results[2], EffLimitV: limit}, nil
}

// loneIR returns the IR drop of a lone single-bank activation on the top
// die with the whole bus: the least an IR constraint must allow for the
// workload to run at all.
func loneIR(table *lut.Table) (float64, error) {
	counts := make([]int, table.Dies)
	counts[len(counts)-1] = 1
	return table.MaxIR(counts, 1.0)
}
