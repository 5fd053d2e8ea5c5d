package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/report"
)

// PolicyStudyAll extends the paper's Table 6 study to every benchmark,
// using each design's own channel configuration (Table 1: one channel for
// stacked DDR3, four for Wide I/O, sixteen HMC vault channels) and an
// IR-drop constraint of 80 % of the design's worst single-die interleaving
// state — the proportional equivalent of the paper's 24 mV on the 30 mV
// DDR3 design.
func (r *Runner) PolicyStudyAll() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/policy-all")
	defer sp.End()
	t := &report.Table{
		Title: "Extension: IR-drop-aware policies across all benchmarks",
		Header: []string{"benchmark", "channels", "limit (mV)",
			"Std BW", "IR-FCFS BW", "IR-DistR BW", "Std maxIR", "DistR maxIR"},
	}
	names := []string{"ddr3-off", "ddr3-on", "wideio", "hmc"}
	rows, err := sweep(r, len(names), func(i int) (*policyStudyResult, error) {
		return r.policyStudyOne(names[i])
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		std, fcfs, distr := rows[i].std, rows[i].fcfs, rows[i].distr
		t.AddRow(name, rows[i].channels, fmt.Sprintf("%.1f", rows[i].limit*1000),
			fmt.Sprintf("%.3f", std.Bandwidth),
			fmt.Sprintf("%.3f (%s)", fcfs.Bandwidth, report.Pct(std.Bandwidth, fcfs.Bandwidth)),
			fmt.Sprintf("%.3f (%s)", distr.Bandwidth, report.Pct(std.Bandwidth, distr.Bandwidth)),
			fmt.Sprintf("%.2f", std.MaxIR*1000),
			fmt.Sprintf("%.2f", distr.MaxIR*1000))
	}
	t.Notes = append(t.Notes,
		"limit = 80% of each design's worst single-die interleaving state (the paper's 24/30 ratio)",
		"multi-channel designs (Wide I/O, HMC) gain bus parallelism on top of the policy gains")
	return t, nil
}

// policyStudyOne runs the three-policy comparison for one benchmark.
type policyStudyResult struct {
	channels         int
	limit            float64
	std, fcfs, distr *memctrl.Result
}

func (r *Runner) policyStudyOne(name string) (*policyStudyResult, error) {
	b, err := bench3d.ByName(name)
	if err != nil {
		return nil, err
	}
	b.Spec = r.prepare(b.Spec)
	table, err := r.lutFor(b, b.Spec)
	if err != nil {
		return nil, err
	}
	worst := make([]int, b.Spec.NumDRAM)
	worst[len(worst)-1] = 2
	ref, err := table.MaxIR(worst, 1.0)
	if err != nil {
		return nil, err
	}
	limit := 0.8 * ref
	// Keep the constraint feasible: a lone single-bank activation must
	// fit, or no request can ever issue.
	single := make([]int, b.Spec.NumDRAM)
	single[len(single)-1] = 1
	floor, err := table.MaxIR(single, 1.0)
	if err != nil {
		return nil, err
	}
	if limit < floor*1.02 {
		limit = floor * 1.02
	}

	std, err := r.policyRun(b, table, memctrl.PolicyStandard, memctrl.FCFS, 0)
	if err != nil {
		return nil, err
	}
	fcfs, err := r.policyRun(b, table, memctrl.PolicyIRAware, memctrl.FCFS, limit)
	if err != nil {
		return nil, err
	}
	distr, err := r.policyRun(b, table, memctrl.PolicyIRAware, memctrl.DistR, limit)
	if err != nil {
		return nil, err
	}
	return &policyStudyResult{channels: b.Channels, limit: limit,
		std: std, fcfs: fcfs, distr: distr}, nil
}
