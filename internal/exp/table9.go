package exp

import (
	"fmt"

	"pdn3d/internal/cost"
	"pdn3d/internal/obs"
	"pdn3d/internal/opt"
	"pdn3d/internal/report"
)

// Table8 renders the cost model summary (paper Table 8).
func (r *Runner) Table8() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table8")
	defer sp.End()
	m := cost.Default()
	t := &report.Table{
		Title:  "Table 8: cost model summary",
		Header: []string{"solution", "abbr", "input range", "cost range"},
	}
	t.AddRow("M2 VDD usage", "M2", "10%-20%", fmt.Sprintf("%.3f-%.3f", 0.10*m.M2PerUsage, 0.20*m.M2PerUsage))
	t.AddRow("M3 VDD usage", "M3", "10%-40%", fmt.Sprintf("%.3f-%.3f", 0.10*m.M3PerUsage, 0.40*m.M3PerUsage))
	t.AddRow("Power TSV #", "TC", "15-480", fmt.Sprintf("%.3f-%.3f (sqrt)", m.TSVSqrt*3.873, m.TSVSqrt*21.909))
	t.AddRow("Dedicated TSV", "TD", "yes/no", fmt.Sprintf("%.2f/0", m.Dedicated))
	t.AddRow("Bonding style", "BD", "F2B/F2F", fmt.Sprintf("%.3f/%.3f", m.BondF2B, m.BondF2F))
	t.AddRow("RDL layer", "RL", "yes/no", fmt.Sprintf("%.2f/0", m.RDLCost))
	t.AddRow("Wire bonding", "WB", "yes/no", fmt.Sprintf("%.2f/0", m.WireBond))
	t.AddRow("TSV location", "TL", "C / E / D", fmt.Sprintf("0 / %.1fxTC / %.1fxTC", m.EdgeTSVFactor, m.DistributedTSVFactor))
	return t, nil
}

// Table9Alphas are the IR-cost exponents the paper reports.
var Table9Alphas = []float64{0, 0.3, 1}

// Table9 runs the cross-domain co-optimization for the named benchmark and
// reports the best options at each alpha plus the baseline (paper Table 9).
// It also reports the regression quality of §6.1, over the fit's samples
// plus the solves verifying this table's rows.
func (r *Runner) Table9(benchName string) (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/table9", obs.A("bench", benchName))
	defer sp.End()
	o, err := r.fit(benchName)
	if err != nil {
		return nil, err
	}
	solves := o.FitSamples
	t := &report.Table{
		Title:  fmt.Sprintf("Table 9: best options for %s", benchName),
		Header: []string{"alpha", "M2", "M3", "TC", "TL", "TD", "BD", "RL", "WB", "IR model (mV)", "IR R-Mesh (mV)", "cost"},
	}
	addRow := func(label string, res *opt.Result) {
		solves += res.Solves
		yn := func(v bool) string {
			if v {
				return "Y"
			}
			return "N"
		}
		c := res.Cand
		t.AddRow(label,
			fmt.Sprintf("%.0f%%", c.M2*100), fmt.Sprintf("%.0f%%", c.M3*100),
			c.TC, c.TL.String(), yn(c.TD), c.BD.String(), yn(c.RL), yn(c.WB),
			res.PredIRmV, res.MeasIRmV, fmt.Sprintf("%.2f", res.Cost))
	}
	for _, alpha := range Table9Alphas {
		res, err := o.Best(alpha)
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("%.1f", alpha), res)
	}
	base, err := o.Baseline()
	if err != nil {
		return nil, err
	}
	addRow("baseline", base)
	t.Notes = append(t.Notes,
		fmt.Sprintf("regression: worst RMSE %.4f (log-mV), worst R^2 %.5f over %d R-Mesh samples",
			o.FitRMSE, o.FitR2, solves),
		"paper regression: RMSE < 0.135, R^2 > 0.999")
	return t, nil
}

// RegressionStudy reports the §6.1 regression quality and the
// sample-vs-brute-force reduction for one benchmark, from the same fit
// Table 9 searches.
func (r *Runner) RegressionStudy(benchName string) (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/regression", obs.A("bench", benchName))
	defer sp.End()
	o, err := r.fit(benchName)
	if err != nil {
		return nil, err
	}
	// Brute-force equivalent: every grid point solved on the R-Mesh.
	grid := o.GridSize()
	t := &report.Table{
		Title:  fmt.Sprintf("Sec. 6.1: regression analysis for %s", benchName),
		Header: []string{"metric", "value"},
	}
	t.AddRow("R-Mesh samples solved", o.FitSamples)
	t.AddRow("design points covered by model", grid)
	t.AddRow("solve reduction", fmt.Sprintf("%.0fx", float64(grid)/float64(max(o.FitSamples, 1))))
	t.AddRow("worst-combo RMSE (log mV)", fmt.Sprintf("%.4f", o.FitRMSE))
	t.AddRow("worst-combo R^2", fmt.Sprintf("%.5f", o.FitR2))
	t.Notes = append(t.Notes, "paper: brute force 4637 h -> 10 h with regression; RMSE < 0.135, R^2 > 0.999")
	return t, nil
}
