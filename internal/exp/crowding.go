package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/report"
	"pdn3d/internal/rmesh"
)

// CrowdingStudy reports DC current crowding over the vertical supply
// branches — the per-TSV current imbalance behind the paper's §3.2
// discussion (its reference [6] models exactly this effect): few or badly
// placed TSVs concentrate the supply current in individual vias.
func (r *Runner) CrowdingStudy() (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/crowding")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "TSV current crowding (off-chip stacked DDR3, 0-0-0-2)",
		Header: []string{"TSV count", "branch", "total (mA)", "peak (mA)", "mean (mA)", "crowding"},
	}
	tsvCounts := []int{15, 33, 120, 480}
	allStats, err := sweep(r, len(tsvCounts), func(i int) ([]irdrop.CrowdingStats, error) {
		spec := r.prepare(b.Spec)
		spec.TSVCount = tsvCounts[i]
		a, err := r.analyzer(b, spec)
		if err != nil {
			return nil, err
		}
		res, err := a.Analyze(defaultState(b), b.DefaultIO)
		if err != nil {
			return nil, err
		}
		return a.Crowding(res)
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range tsvCounts {
		for _, s := range allStats[i] {
			if s.Kind != rmesh.LinkTSV && s.Kind != rmesh.LinkLanding {
				continue
			}
			t.AddRow(tc, s.Kind.String(),
				fmt.Sprintf("%.1f", s.TotalMA), fmt.Sprintf("%.2f", s.MaxMA),
				fmt.Sprintf("%.2f", s.MeanMA), fmt.Sprintf("%.2f", s.Crowding))
		}
	}
	t.Notes = append(t.Notes,
		"crowding = peak/mean branch current; 1.0 is perfectly balanced",
		"few TSVs concentrate the supply current in individual vias (paper sec 3.2 / ref [6])")
	return t, nil
}
