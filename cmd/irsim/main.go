// Command irsim runs one DC IR-drop analysis on a benchmark design and
// prints per-die results, optionally dumping an ASCII IR map per layer or
// an HSPICE-style netlist of the R-Mesh.
//
// Usage:
//
//	irsim -bench ddr3-off [-state 0-0-0-2] [-io 1.0] [-bonding F2F]
//	      [-tsv 33] [-style E|C|D] [-wirebond] [-dedicated] [-rdl none|interface|all]
//	      [-align] [-pitch 0.2] [-solver cg-ic0|cg-amg] [-workers n]
//	      [-map] [-spice out.sp] [-stats] [-metrics-out file] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/layout"
	"pdn3d/internal/obs"
	"pdn3d/internal/query"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
	"pdn3d/internal/spice"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irsim: ")
	benchName := flag.String("bench", "ddr3-off", "benchmark: ddr3-off, ddr3-on, wideio, hmc")
	stateStr := flag.String("state", "0-0-0-2", "memory state R1-R2-R3-R4")
	io := flag.Float64("io", 1.0, "per-die I/O activity (0,1]")
	bonding := flag.String("bonding", "", "override bonding: F2B or F2F")
	tsv := flag.Int("tsv", 0, "override PG TSV count")
	style := flag.String("style", "", "override TSV style: C, E, or D")
	wirebond := flag.Bool("wirebond", false, "add backside wire bonding")
	dedicated := flag.Bool("dedicated", false, "add dedicated TSVs (on-chip)")
	rdl := flag.String("rdl", "", "override RDL: none, interface, all")
	align := flag.Bool("align", false, "align TSVs to C4 bumps (on-chip)")
	pitch := flag.Float64("pitch", 0, "R-Mesh pitch in mm (0 = default)")
	solver := flag.String("solver", "", "nodal solver: "+strings.Join(solve.Methods(), ", ")+" (default "+solve.DefaultMethod+")")
	workers := flag.Int("workers", 0, "worker pool size for solver kernels (0 = GOMAXPROCS)")
	dumpMap := flag.Bool("map", false, "print an ASCII IR map per layer")
	spiceOut := flag.String("spice", "", "write an HSPICE-style netlist to this file")
	svgOut := flag.String("svg", "", "write an SVG layout view (top DRAM die, IR overlay) to this file")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	reg := obsFlags.Setup(log.Printf)

	// The shared query validator rejects out-of-range inputs (-io outside
	// (0,1], negative -pitch/-tsv, malformed -state) at flag-parse time
	// with the same errors the analysis server reports.
	q := query.Query{
		Bench:     *benchName,
		State:     *stateStr,
		IO:        *io,
		Bonding:   *bonding,
		TSV:       *tsv,
		Style:     *style,
		RDL:       *rdl,
		Wirebond:  *wirebond,
		Dedicated: *dedicated,
		Align:     *align,
		Pitch:     *pitch,
	}
	r, err := q.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	spec, state := r.Spec, r.State
	a, err := irdrop.NewObs(spec, r.Bench.DRAMPower, r.Logic, reg)
	if err != nil {
		log.Fatal(err)
	}
	a.Opts.Method = *solver
	a.Opts.Workers = *workers
	res, err := a.Analyze(state, *io)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("design:        %s (%s, %s TSVs x%d, RDL %s, wirebond %v)\n",
		spec.Name, spec.Bonding, spec.TSVStyle, spec.TSVCount, spec.RDL, spec.WireBond)
	fmt.Printf("mesh:          %d nodes, %d resistors\n", a.Model.N(), a.Model.Resistors)
	fmt.Printf("state:         %s @ %.0f%% I/O, stack power %.1f mW\n", state, *io*100, res.TotalPower)
	fmt.Printf("solve:         %d CG iterations, residual %.2e\n", res.Stats.Iterations, res.Stats.Residual)
	fmt.Printf("max IR drop:   %.2f mV\n", res.MaxIRmV())
	for d, v := range res.PerDie {
		fmt.Printf("  DRAM%d:       %.2f mV\n", d+1, v*1000)
	}
	if spec.OnLogic {
		fmt.Printf("  logic die:   %.2f mV\n", res.LogicIRmV())
	}

	if *dumpMap {
		for _, l := range a.Model.Layers {
			fmt.Printf("\nIR map %s (mV):\n%s", l.Key, asciiMap(a.Model, l, res.IR))
		}
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			log.Fatal(err)
		}
		top := spec.NumDRAM - 1
		l, ok := a.Model.Layer(fmt.Sprintf("dram%d/M2", top))
		if !ok {
			log.Fatalf("no load layer for die %d", top)
		}
		err = layout.WriteSVG(f, spec, spec.DRAM, layout.Options{
			Title:     fmt.Sprintf("%s DRAM%d, state %s", spec.Name, top+1, state),
			ShowTSVs:  true,
			ShowWires: true,
			IR:        res.IR,
			Layer:     l,
		})
		cerr := f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("\nlayout view written to %s\n", *svgOut)
	}
	if *spiceOut != "" {
		f, err := os.Create(*spiceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		rhs, err := a.LoadedRHS(state, *io)
		if err != nil {
			log.Fatal(err)
		}
		if err := spice.WriteNetlist(f, a.Model, rhs, "pdn3d "+spec.Name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nnetlist written to %s\n", *spiceOut)
	}
	if err := obsFlags.Finish(reg); err != nil {
		log.Fatal(err)
	}
}

// asciiMap renders a layer's IR drop as a coarse character map
// (space < 25% of layer max ... '#' > 75%).
func asciiMap(m *rmesh.Model, l *rmesh.Layer, ir []float64) string {
	var mx float64
	for n := l.Offset; n < l.Offset+l.Grid.N(); n++ {
		if ir[n] > mx {
			mx = ir[n]
		}
	}
	if mx == 0 {
		mx = 1
	}
	ramp := []byte(" .:-=+*#")
	var sb strings.Builder
	// Limit the map to ~60 columns by striding.
	stride := (l.Grid.NX + 59) / 60
	for j := l.Grid.NY - 1; j >= 0; j -= stride {
		for i := 0; i < l.Grid.NX; i += stride {
			v := ir[l.Offset+l.Grid.Index(i, j)] / mx
			idx := int(v * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(max %.2f mV)\n", mx*1000)
	return sb.String()
}
