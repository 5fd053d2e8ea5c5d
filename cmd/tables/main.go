// Command tables regenerates every table and figure of the paper's
// evaluation section and prints them to stdout.
//
// Usage:
//
//	tables [-pitch mm] [-requests n] [-only id[,id...]] [-benchmarks names]
//	       [-workers n] [-stats] [-metrics-out file] [-pprof addr]
//
// Experiment ids: table1 metal mounting table2 table3 table4 table5 table6
// table7 table8 table9 fig4 fig5 fig9 regression crowding failure policyall ac. The default runs all of
// them at full fidelity; -pitch 0.4 gives a quick pass. An unknown -only
// id exits 2, listing the valid ids, before any experiment runs.
//
// An experiment that fails still prints whatever it produced (resilient
// tables render failed cells as ERR), the error goes to stderr, the
// remaining experiments run, and the process exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pdn3d/internal/exp"
	"pdn3d/internal/obs"
	"pdn3d/internal/report"
)

func main() {
	pitch := flag.Float64("pitch", 0, "R-Mesh pitch override in mm (0 = full fidelity 0.2)")
	requests := flag.Int("requests", 0, "controller workload length (0 = 10000)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	benches := flag.String("benchmarks", "ddr3-off,ddr3-on,wideio,hmc", "benchmarks for table9/regression")
	workers := flag.Int("workers", 0, "worker pool size for sweeps (0 = GOMAXPROCS)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	sel, err := selection(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(2)
	}
	want := func(id string) bool { return len(sel) == 0 || sel[id] }

	errlog := func(format string, args ...interface{}) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	reg := obsFlags.Setup(errlog)
	r := exp.NewRunner(exp.Config{MeshPitch: *pitch, Requests: *requests, Workers: *workers, Obs: reg})

	exitCode := 0
	run := func(id string, f func() (string, error)) {
		if !want(id) {
			return
		}
		start := time.Now()
		out, err := f()
		if out != "" {
			fmt.Printf("== %s (%.1fs) ==\n%s\n", id, time.Since(start).Seconds(), out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			exitCode = 1
		}
	}

	for _, e := range experiments {
		run(e.id, func() (string, error) { return e.run(r) })
	}
	for _, b := range strings.Split(*benches, ",") {
		b := strings.TrimSpace(b)
		for _, e := range benchExperiments {
			run(e.id, func() (string, error) { return e.run(r, b) })
		}
	}

	if err := obsFlags.Finish(reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exitCode = 1
	}
	os.Exit(exitCode)
}

// experiments are the experiments in run order.
var experiments = []struct {
	id  string
	run func(*exp.Runner) (string, error)
}{
	{"table1", func(r *exp.Runner) (string, error) { return renderT(r.Table1()) }},
	{"fig4", func(r *exp.Runner) (string, error) { t, _, err := r.Figure4(); return renderT(t, err) }},
	{"metal", func(r *exp.Runner) (string, error) { return renderT(r.MetalUsageStudy()) }},
	{"mounting", func(r *exp.Runner) (string, error) { return renderT(r.MountingStudy()) }},
	{"fig5", func(r *exp.Runner) (string, error) { return renderS(r.Figure5()) }},
	{"table2", func(r *exp.Runner) (string, error) { return renderT(r.Table2()) }},
	{"table3", func(r *exp.Runner) (string, error) { return renderT(r.Table3()) }},
	{"table4", func(r *exp.Runner) (string, error) { return renderT(r.Table4()) }},
	{"table5", func(r *exp.Runner) (string, error) { return renderT(r.Table5()) }},
	{"table6", func(r *exp.Runner) (string, error) { t, _, err := r.Table6(); return renderT(t, err) }},
	{"table7", func(r *exp.Runner) (string, error) { return renderT(r.Table7()) }},
	{"fig9", func(r *exp.Runner) (string, error) { return renderS(r.Figure9(nil)) }},
	{"table8", func(r *exp.Runner) (string, error) { return renderT(r.Table8()) }},
	{"crowding", func(r *exp.Runner) (string, error) { return renderT(r.CrowdingStudy()) }},
	{"failure", func(r *exp.Runner) (string, error) { return renderT(r.TSVFailureStudy()) }},
	{"policyall", func(r *exp.Runner) (string, error) { return renderT(r.PolicyStudyAll()) }},
	{"ac", func(r *exp.Runner) (string, error) { return renderT(r.ACStudy()) }},
}

// benchExperiments run after experiments, once per -benchmarks entry.
var benchExperiments = []struct {
	id  string
	run func(r *exp.Runner, bench string) (string, error)
}{
	{"table9", func(r *exp.Runner, b string) (string, error) { return renderT(r.Table9(b)) }},
	{"regression", func(r *exp.Runner, b string) (string, error) { return renderT(r.RegressionStudy(b)) }},
}

// ids lists every experiment id in run order.
func ids() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.id)
	}
	for _, e := range benchExperiments {
		out = append(out, e.id)
	}
	return out
}

// selection parses -only into the set of experiment ids to run (empty:
// all of them). Every id must name an experiment.
func selection(only string) (map[string]bool, error) {
	sel := map[string]bool{}
	if only == "" {
		return sel, nil
	}
	valid := ids()
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment id %q in -only; valid ids: %s", id, strings.Join(valid, " "))
		}
		sel[id] = true
	}
	return sel, nil
}

// renderT renders a table result, passing the error through. A nil table
// renders empty — returning (*report.Table)(nil) through an interface
// would dodge the nil check, so the concrete types stay explicit here.
func renderT(t *report.Table, err error) (string, error) {
	if t == nil {
		return "", err
	}
	return t.String(), err
}

// renderS is renderT for series results.
func renderS(s *report.Series, err error) (string, error) {
	if s == nil {
		return "", err
	}
	return s.String(), err
}
