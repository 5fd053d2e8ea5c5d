package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
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
	benches, err := bench3d.All()
	if err != nil {
		return nil, err
	}
	rows, err := sweep(r, len(benches), func(i int) (*Table6Result, error) {
		return r.policyStudyOne(benches[i])
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		std, fcfs, distr := rows[i].Standard, rows[i].IRFCFS, rows[i].IRDistR
		t.AddRow(b.Name, b.Channels, fmt.Sprintf("%.1f", rows[i].EffLimitV*1000),
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

// policyStudyOne runs the three-policy comparison for benchmark b at 80 %
// of its worst single-die interleaving state.
func (r *Runner) policyStudyOne(b *bench3d.Benchmark) (*Table6Result, error) {
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
	return r.comparePolicies(b, table, 0.8*ref)
}
