// Command pdn3d runs the cross-domain co-optimization (paper §6) for one
// benchmark: it fits the regression IR-drop model from R-Mesh samples,
// searches the design space for the minimum IR-cost at each requested
// alpha, verifies winners on the R-Mesh, and prints a Table 9-style
// summary.
//
// Usage:
//
//	pdn3d -bench ddr3-off [-alpha 0,0.3,1] [-pitch 0.2] [-samples 3] [-grid 9]
//	      [-workers n] [-solver cg-ic0|cg-amg]
//	      [-stats] [-metrics-out file] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/obs"
	"pdn3d/internal/opt"
	"pdn3d/internal/report"
	"pdn3d/internal/solve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdn3d: ")
	benchName := flag.String("bench", "ddr3-off", "benchmark: ddr3-off, ddr3-on, wideio, hmc")
	alphas := flag.String("alpha", "0,0.3,1", "comma-separated IR-cost exponents in [0,1]")
	pitch := flag.Float64("pitch", 0, "R-Mesh pitch override in mm")
	samples := flag.Int("samples", 0, "regression samples per continuous axis (0 = 3)")
	grid := flag.Int("grid", 0, "search grid steps per axis (0 = 9)")
	workers := flag.Int("workers", 0, "worker pool size for sampling sweeps (0 = GOMAXPROCS)")
	solver := flag.String("solver", "", "nodal solver: "+strings.Join(solve.Methods(), ", ")+" (default "+solve.DefaultMethod+")")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	reg := obsFlags.Setup(log.Printf)

	b, err := bench3d.ByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	o := &opt.Optimizer{
		Bench:             b,
		MeshPitch:         *pitch,
		ContinuousSamples: *samples,
		GridSteps:         *grid,
		Workers:           *workers,
		Solver:            *solver,
		Obs:               reg,
	}
	start := time.Now()
	if err := o.FitModels(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted regression models from %d R-Mesh samples in %.1fs (worst RMSE %.4f log-mV, worst R^2 %.5f)\n",
		o.SolveCount(), time.Since(start).Seconds(), o.FitRMSE, o.FitR2)

	t := &report.Table{
		Title:  fmt.Sprintf("best options for %s (IR-cost = IR^a x Cost^(1-a))", b.Name),
		Header: []string{"alpha", "configuration", "IR model (mV)", "IR R-Mesh (mV)", "cost"},
	}
	for _, s := range strings.Split(*alphas, ",") {
		a, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			log.Fatalf("bad alpha %q: %v", s, err)
		}
		res, err := o.Best(a)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(fmt.Sprintf("%.2f", a), res.Cand.String(), res.PredIRmV, res.MeasIRmV,
			fmt.Sprintf("%.2f", res.Cost))
	}
	base, err := o.Baseline()
	if err != nil {
		log.Fatal(err)
	}
	t.AddRow("baseline", base.Cand.String(), base.PredIRmV, base.MeasIRmV, fmt.Sprintf("%.2f", base.Cost))
	fmt.Print(t)
	if err := obsFlags.Finish(reg); err != nil {
		log.Fatal(err)
	}
}
