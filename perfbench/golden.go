package main

import (
	"strings"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/exp"
	"pdn3d/internal/par"
)

// writeGoldens regenerates every golden answer into dir from the
// program's own entry points at full fidelity: exp.Runner for the
// tables, lut.BuildWith for the look-up table, and Analyzer.AnalyzeCounts
// for every fine-mesh pool state.
func writeGoldens(dir string) error {
	k := &checker{dir: dir}
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return err
	}
	tab, res, err := exp.NewRunner(exp.Config{}).Table6()
	if err != nil {
		return err
	}
	if err := k.text("lut-policy/table6", tab.String()); err != nil {
		return err
	}
	if err := k.text("lut-policy/policies", renderPolicies(res.Standard, res.IRFCFS, res.IRDistR, res.EffLimitV)); err != nil {
		return err
	}
	lutText, err := lutGolden(b)
	if err != nil {
		return err
	}
	if err := k.text("lut-policy/lut", lutText); err != nil {
		return err
	}

	r := exp.NewRunner(exp.Config{})
	for _, e := range sweepExps {
		text, err := e.run(r)
		if err != nil {
			return err
		}
		if err := k.text("design-sweep/"+e.id, text); err != nil {
			return err
		}
	}

	a, err := coldSetup(withPitch(b.Spec, benchFinePitch), b.DRAMPower, nil)
	if err != nil {
		return err
	}
	pool := fineStatePool()
	lines := make([]string, len(pool))
	err = par.Sweep(0, len(pool), func(i int) error {
		res, err := a.AnalyzeCounts(pool[i], fineIO)
		if err != nil {
			return err
		}
		lines[i] = renderIR(pool[i], fineIO, res.PerDie)
		return nil
	})
	if err != nil {
		return err
	}
	return k.text("fine-mesh/states", strings.Join(lines, "\n")+"\n")
}
