// Command tables regenerates every table and figure of the paper's
// evaluation section and prints them to stdout.
//
// Usage:
//
//	tables [-pitch mm] [-requests n] [-only id[,id...]] [-benchmarks names]
//	       [-workers n] [-solver cg-ic0|cg-amg]
//	       [-stats] [-metrics-out file] [-pprof addr]
//
// Experiment ids: table1 metal mounting table2 table3 table4 table5 table6
// table7 table8 table9 fig4 fig5 fig9 regression crowding failure policyall ac. The default runs all of
// them at full fidelity; -pitch 0.4 gives a quick pass.
//
// An experiment that fails still prints whatever it produced (resilient
// tables render failed cells as ERR), the error goes to stderr, the
// remaining experiments run, and the process exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pdn3d/internal/exp"
	"pdn3d/internal/obs"
	"pdn3d/internal/report"
	"pdn3d/internal/solve"
)

func main() {
	pitch := flag.Float64("pitch", 0, "R-Mesh pitch override in mm (0 = full fidelity 0.2)")
	requests := flag.Int("requests", 0, "controller workload length (0 = 10000)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	benches := flag.String("benchmarks", "ddr3-off,ddr3-on,wideio,hmc", "benchmarks for table9/regression")
	workers := flag.Int("workers", 0, "worker pool size for sweeps and solver kernels (0 = GOMAXPROCS)")
	solver := flag.String("solver", "", "nodal solver: "+strings.Join(solve.Methods(), ", ")+" (default "+solve.DefaultMethod+")")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	errlog := func(format string, args ...interface{}) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	reg := obsFlags.Setup(errlog)
	r := exp.NewRunner(exp.Config{MeshPitch: *pitch, Requests: *requests, Workers: *workers, Solver: *solver, Obs: reg})
	sel := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			sel[strings.TrimSpace(id)] = true
		}
	}
	want := func(id string) bool { return len(sel) == 0 || sel[id] }

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

	run("table1", func() (string, error) { return renderT(r.Table1()) })
	run("fig4", func() (string, error) { t, _, err := r.Figure4(); return renderT(t, err) })
	run("metal", func() (string, error) { return renderT(r.MetalUsageStudy()) })
	run("mounting", func() (string, error) { return renderT(r.MountingStudy()) })
	run("fig5", func() (string, error) { return renderS(r.Figure5()) })
	run("table2", func() (string, error) { return renderT(r.Table2()) })
	run("table3", func() (string, error) { return renderT(r.Table3()) })
	run("table4", func() (string, error) { return renderT(r.Table4()) })
	run("table5", func() (string, error) { return renderT(r.Table5()) })
	run("table6", func() (string, error) { t, _, err := r.Table6(); return renderT(t, err) })
	run("table7", func() (string, error) { return renderT(r.Table7()) })
	run("fig9", func() (string, error) { return renderS(r.Figure9(nil)) })
	run("table8", func() (string, error) { return renderT(r.Table8()) })
	run("crowding", func() (string, error) { return renderT(r.CrowdingStudy()) })
	run("failure", func() (string, error) { return renderT(r.TSVFailureStudy()) })
	run("policyall", func() (string, error) { return renderT(r.PolicyStudyAll()) })
	run("ac", func() (string, error) { return renderT(r.ACStudy()) })
	for _, b := range strings.Split(*benches, ",") {
		b := strings.TrimSpace(b)
		run("table9", func() (string, error) { return renderT(r.Table9(b)) })
		run("regression", func() (string, error) { return renderT(r.RegressionStudy(b)) })
	}

	if err := obsFlags.Finish(reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exitCode = 1
	}
	os.Exit(exitCode)
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
