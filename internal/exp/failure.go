package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/report"
)

// TSVFailureStudy measures IR-drop resilience against PG TSV faults: a
// fraction of the via stacks is opened (manufacturing or wear-out faults)
// and the worst-case IR drop re-analyzed. A redundancy-style view of the
// §3.2 saturation result — designs past the saturation knee tolerate
// substantial TSV loss.
func (r *Runner) TSVFailureStudy() (*report.Table, error) {
	return r.TSVFailureStudyAt([]int{33, 120}, []int{0, 10, 25, 50})
}

// TSVFailureStudyAt is TSVFailureStudy over explicit TSV counts and
// failure percentages. Infeasible points (100 % failure severs the stack
// from its supply and the nodal system goes singular) render as ERR cells
// rather than dropping the table; the table is returned alongside the
// aggregated cell error so callers can print it and still fail the run.
func (r *Runner) TSVFailureStudyAt(tsvCounts, failPcts []int) (*report.Table, error) {
	sp := r.Cfg.Obs.Trace().Span("exp/tsv-failure")
	defer sp.End()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "TSV failure resilience (off-chip stacked DDR3, 0-0-0-2)",
		Header: []string{"TSV count", "failed", "alive", "max IR (mV)", "vs healthy"},
	}
	type point struct {
		tc, failPct int
	}
	var points []point
	for _, tc := range tsvCounts {
		for _, failPct := range failPcts {
			points = append(points, point{tc, failPct})
		}
	}
	type outcome struct {
		maxIR float64
		alive int
	}
	results, cellErrs, sweepErr := sweepCells(r, len(points), func(i int) (outcome, error) {
		p := points[i]
		spec := r.prepare(b.Spec)
		spec.TSVCount = p.tc
		nFail := p.tc * p.failPct / 100
		if nFail > 0 {
			// Deterministic spread: fail every stride-th via stack.
			spec.FailedTSVs = map[int]bool{}
			stride := 1
			if nFail < p.tc {
				stride = p.tc / nFail
			}
			for i := 0; i < nFail; i++ {
				spec.FailedTSVs[(i*stride)%p.tc] = true
			}
		}
		res, err := r.analyze(b, spec, defaultState(b), b.DefaultIO)
		if err != nil {
			return outcome{}, err
		}
		return outcome{maxIR: res.MaxIR, alive: p.tc - len(spec.FailedTSVs)}, nil
	})
	var healthy float64
	for i, p := range points {
		if cellErrs[i] != nil {
			t.AddRow(p.tc, fmt.Sprintf("%d%%", p.failPct), p.tc-p.tc*p.failPct/100, "ERR", "-")
			continue
		}
		rel := "-"
		if p.failPct == 0 {
			healthy = results[i].maxIR
		} else {
			rel = report.Pct(healthy, results[i].maxIR)
		}
		t.AddRow(p.tc, fmt.Sprintf("%d%%", p.failPct), results[i].alive,
			results[i].maxIR*1000, rel)
	}
	t.Notes = append(t.Notes,
		"failures open whole via stacks (landing included); deterministic spread pattern",
		"designs past the Figure 5 saturation knee tolerate substantial TSV loss")
	r.Cfg.Obs.Counter("exp.cells_failed").Add(int64(countErrs(cellErrs)))
	return t, sweepErr
}

func countErrs(errs []error) int {
	n := 0
	for _, e := range errs {
		if e != nil {
			n++
		}
	}
	return n
}
