// Command pdnbench runs the benchmark-interchange and differential-solver
// corpus: it expands the committed synthetic corpus (internal/bench/gen),
// batters every registered solver against the dense-Cholesky oracle or
// the cross-check reference (internal/bench/diff), verifies the SPICE
// netlist round trip, and writes the machine-readable BENCH_diff.json
// snapshot CI tracks.
//
// Usage:
//
//	pdnbench                 run the committed corpus, print a report
//	pdnbench -long           also run the on-the-fly sized meshes
//	pdnbench -out F.json     write the JSON snapshot to F.json
//	pdnbench -list           print the corpus without running it
//	pdnbench -regen          rewrite the committed corpus goldens
//	pdnbench -export DIR     write each corpus mesh as a SPICE deck
//	pdnbench -import GLOB    run external SPICE decks through the harness
//	pdnbench -convergence    add the per-family iteration/κ table and
//	                         snapshot section (solve flight recorder)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pdn3d/internal/bench/diff"
	"pdn3d/internal/bench/gen"
	"pdn3d/internal/solve"
	"pdn3d/internal/spice"
)

func main() {
	var (
		list     = flag.Bool("list", false, "print the corpus entries and exit")
		regen    = flag.Bool("regen", false, "rewrite the committed corpus goldens and exit")
		dir      = flag.String("dir", "internal/bench/gen/corpus", "corpus directory for -regen")
		exportTo = flag.String("export", "", "write each corpus mesh as a SPICE deck into this directory and exit")
		importGl = flag.String("import", "", "run external SPICE decks matching this glob through the differential harness and exit")
		out      = flag.String("out", "", "write the BENCH_diff.json snapshot to this path")
		long     = flag.Bool("long", false, "also run the on-the-fly sized meshes (cross-check regime)")
		solvers  = flag.String("solvers", "", "comma-separated solver methods (default: every registered method)")
		maxN     = flag.Int("max-nodes", diff.DefaultOracleMaxN, "largest system the dense Cholesky oracle factorizes")
		workers  = flag.Int("workers", 0, "solver worker pool bound (0: GOMAXPROCS)")
		conv     = flag.Bool("convergence", false, "print the per-family convergence table and commit it into the snapshot")
	)
	flag.Parse()
	if *importGl != "" {
		opt := diff.Options{OracleMaxN: *maxN, Workers: *workers}
		if *solvers != "" {
			opt.Methods = strings.Split(*solvers, ",")
		}
		if err := importDecks(*importGl, opt); err != nil {
			fmt.Fprintln(os.Stderr, "pdnbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*list, *regen, *dir, *exportTo, *out, *long, *conv, *solvers, *maxN, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "pdnbench:", err)
		os.Exit(1)
	}
}

func run(list, regen bool, dir, exportTo, out string, long, conv bool, solvers string, maxN, workers int) error {
	if regen {
		if err := gen.WriteCorpus(dir); err != nil {
			return err
		}
		fmt.Printf("regenerated %d corpus goldens in %s\n", len(gen.Canonical()), dir)
		return nil
	}
	specs, err := gen.Corpus()
	if err != nil {
		return err
	}
	if long {
		for _, base := range []string{"ddr3-off", "hmc"} {
			for level := 0; level < gen.SizedLevels(); level++ {
				s, err := gen.Sized(base, level)
				if err != nil {
					return err
				}
				specs = append(specs, s)
			}
		}
	}
	if list {
		for _, s := range specs {
			fmt.Printf("%-18s base=%-8s pitch=%-4g tsv=%s/%d fail=%g rails=%d seed=%d\n",
				s.Name, s.Base, s.Pitch, s.TSVStyle, s.TSVCount, s.FailRate, s.Rails, s.Seed)
		}
		return nil
	}
	if exportTo != "" {
		return exportDecks(specs, exportTo)
	}

	opt := diff.Options{OracleMaxN: maxN, Workers: workers}
	if solvers != "" {
		opt.Methods = strings.Split(solvers, ",")
	}
	snap := &Snapshot{Solvers: opt.Methods, CorpusSize: len(specs)}
	if len(snap.Solvers) == 0 {
		snap.Solvers = solve.Methods()
	}
	start := time.Now()
	for _, s := range specs {
		rep, err := diff.Check(s, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		snap.add(rep)
		status := "cross"
		if rep.Oracle == diff.OracleCholesky {
			status = "oracle"
		}
		fmt.Printf("%-18s %6d nodes %8d nnz  %s  runs=%d  max_rel_err=%.3e  restamp_exact=%v  roundtrip=%.3e\n",
			rep.Name, rep.Nodes, rep.NNZ, status, len(rep.Runs), rep.MaxRelErr, rep.RestampExact, rep.RoundTrip.VoltRelErr)
	}
	fmt.Printf("checked %d meshes (%d oracle, %d cross) × %d solvers in %v: max_rel_err=%.3e max_roundtrip=%.3e\n",
		snap.Meshes, snap.OracleMeshes, snap.Meshes-snap.OracleMeshes, len(snap.Solvers),
		time.Since(start).Round(time.Millisecond), snap.MaxRelErr, snap.MaxRoundTripRelErr)
	if !snap.AllRestampExact {
		return fmt.Errorf("restamp bit-exactness violated (see report)")
	}
	if !snap.AllStructEqual {
		return fmt.Errorf("netlist round-trip structure mismatch (see report)")
	}
	if snap.MaxRelErr > diff.OracleRelTol && snap.OracleMeshes == snap.Meshes {
		return fmt.Errorf("solver disagreement %.3e above the %.0e oracle bound", snap.MaxRelErr, diff.OracleRelTol)
	}
	if conv {
		snap.Convergence = convergenceRows(snap.Reports)
		fmt.Printf("\n%-8s %-12s %5s %10s %12s\n", "family", "method", "runs", "max_iters", "max_cond_est")
		for _, row := range snap.Convergence {
			fmt.Printf("%-8s %-12s %5d %10d %12.4g\n",
				row.Family, row.Method, row.Runs, row.MaxIters, row.MaxCondEst)
		}
	}

	if out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	return nil
}

// Snapshot is the BENCH_diff.json schema: the differential-coverage
// trajectory (how much of the solver registry × corpus matrix is checked
// and how well it agrees) that solver-optimization PRs push against.
// It carries no timestamps or host data; error magnitudes can wiggle in
// the last digits with the worker count's reduction order.
type Snapshot struct {
	CorpusSize         int      `json:"corpus_size"`
	Meshes             int      `json:"meshes_checked"`
	OracleMeshes       int      `json:"oracle_meshes"`
	Solvers            []string `json:"solvers"`
	SolverRuns         int      `json:"solver_runs"`
	MaxRelErr          float64  `json:"max_rel_err"`
	MaxResidual        float64  `json:"max_residual"`
	MaxRoundTripRelErr float64  `json:"max_roundtrip_rel_err"`
	AllRestampExact    bool     `json:"all_restamp_exact"`
	AllStructEqual     bool     `json:"all_roundtrip_struct_equal"`
	// Convergence is the per-family × per-method envelope of the solve
	// flight recorder's columns (-convergence mode only): the worst
	// iteration count and condition estimate per corpus family, so a
	// conditioning regression in one design family diffs as its own row.
	Convergence []FamilyConvergence `json:"convergence,omitempty"`
	Reports     []*diff.MeshReport  `json:"meshes"`
}

// FamilyConvergence is one convergence-section row.
type FamilyConvergence struct {
	Family     string  `json:"family"`
	Method     string  `json:"method"`
	Runs       int     `json:"runs"`
	MaxIters   int     `json:"max_iterations"`
	MaxCondEst float64 `json:"max_cond_est"`
}

// convergenceRows aggregates the reports' runs by corpus family and
// solver method, sorted for a stable committed snapshot.
func convergenceRows(reports []*diff.MeshReport) []FamilyConvergence {
	type key struct{ family, method string }
	rows := map[key]*FamilyConvergence{}
	for _, rep := range reports {
		fam := familyOf(rep.Name)
		for _, r := range rep.Runs {
			k := key{fam, r.Method}
			row := rows[k]
			if row == nil {
				row = &FamilyConvergence{Family: fam, Method: r.Method}
				rows[k] = row
			}
			row.Runs++
			if r.Iterations > row.MaxIters {
				row.MaxIters = r.Iterations
			}
			if r.CondEst > row.MaxCondEst {
				row.MaxCondEst = r.CondEst
			}
		}
	}
	out := make([]FamilyConvergence, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// familyOf maps a mesh name to its corpus family: the leading alphabetic
// run of the name ("grid0-ddr3" → "grid", "tsv1-hmc-edge" → "tsv").
func familyOf(name string) string {
	for i, r := range name {
		if r < 'a' || r > 'z' {
			if i == 0 {
				return name
			}
			return name[:i]
		}
	}
	return name
}

func (s *Snapshot) add(rep *diff.MeshReport) {
	if s.Meshes == 0 {
		s.AllRestampExact, s.AllStructEqual = true, true
	}
	s.Meshes++
	if rep.Oracle == diff.OracleCholesky {
		s.OracleMeshes++
	}
	s.SolverRuns += len(rep.Runs)
	if rep.MaxRelErr > s.MaxRelErr {
		s.MaxRelErr = rep.MaxRelErr
	}
	for _, r := range rep.Runs {
		if r.Residual > s.MaxResidual {
			s.MaxResidual = r.Residual
		}
	}
	s.AllRestampExact = s.AllRestampExact && rep.RestampExact
	if rep.RoundTrip != nil {
		s.AllStructEqual = s.AllStructEqual && rep.RoundTrip.StructEqual
		if rep.RoundTrip.VoltRelErr > s.MaxRoundTripRelErr {
			s.MaxRoundTripRelErr = rep.RoundTrip.VoltRelErr
		}
	}
	s.Reports = append(s.Reports, rep)
}

// importDecks runs every deck matching the glob through the differential
// harness and prints one line per deck plus a typed per-file error report.
// Any failing deck makes the whole import fail so a CI invocation over a
// deck directory cannot silently skip a corrupt file.
func importDecks(pattern string, opt diff.Options) error {
	reps, fails, err := diff.CheckDecks(pattern, opt)
	if err != nil {
		return err
	}
	for _, rep := range reps {
		fmt.Printf("%-30s %6d nodes %8d nnz  oracle=%-14s runs=%d  max_rel_err=%.3e\n",
			filepath.Base(rep.File), rep.Nodes, rep.NNZ, rep.Oracle, len(rep.Runs), rep.MaxRelErr)
	}
	for _, fe := range fails {
		fmt.Fprintf(os.Stderr, "FAIL %-25s stage=%-7s %v\n", filepath.Base(fe.File), fe.Stage, fe.Err)
	}
	fmt.Printf("imported %d decks: %d ok, %d failed\n", len(reps)+len(fails), len(reps), len(fails))
	if len(fails) > 0 {
		return fmt.Errorf("%d of %d decks failed to import (see report above)", len(fails), len(reps)+len(fails))
	}
	return nil
}

// exportDecks writes each corpus mesh as a standalone SPICE deck — the
// interchange artifact an external simulator (or another PDN tool)
// consumes.
func exportDecks(specs []*gen.Spec, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range specs {
		inst, err := s.Build()
		if err != nil {
			return err
		}
		m, rhs, err := diff.Assemble(inst)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, s.Name+".sp")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := spice.WriteNetlist(f, m, rhs, s.Name); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d nodes)\n", path, m.N())
	}
	return nil
}
