package diff_test

import (
	"testing"

	"pdn3d/internal/bench/diff"
	"pdn3d/internal/bench/gen"
	"pdn3d/internal/obs"
	"pdn3d/internal/solve"
)

// TestCorpusDifferential is the acceptance gate of the benchmark corpus:
// every committed golden mesh is small enough for the dense Cholesky
// oracle, every registered solver must agree with the oracle within
// OracleRelTol, restamping must be bit-exact, and the SPICE
// netlist round trip must reproduce the exact sparsity pattern with
// voltages inside RoundTripVoltTol.
func TestCorpusDifferential(t *testing.T) {
	specs, err := gen.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := diff.Check(s, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Oracle != diff.OracleCholesky {
				t.Errorf("oracle is %q — corpus mesh has %d nodes, above the dense cap; shrink the entry",
					rep.Oracle, rep.Nodes)
			}
			if rep.MaxRelErr > diff.OracleRelTol {
				t.Errorf("solver disagreement %.3e above the %.0e oracle bound", rep.MaxRelErr, diff.OracleRelTol)
			}
			if !rep.RestampExact {
				t.Error("restamped matrix not bit-identical to full build")
			}
			// Every registered method ran once.
			if want := len(solve.Methods()); len(rep.Runs) != want {
				t.Errorf("%d solver runs, want %d (one per method)", len(rep.Runs), want)
			}
			for _, r := range rep.Runs {
				if r.RelErr > diff.OracleRelTol {
					t.Errorf("%s: rel err %.3e above %.0e", r.Method, r.RelErr, diff.OracleRelTol)
				}
			}
			rt := rep.RoundTrip
			if rt == nil {
				t.Fatal("round-trip leg missing")
			}
			if !rt.StructEqual {
				t.Error("re-parsed netlist has a different sparsity pattern")
			}
			if rt.MaxValRelDiff > diff.RoundTripVoltTol {
				t.Errorf("matrix value drift %.3e above %.0e", rt.MaxValRelDiff, diff.RoundTripVoltTol)
			}
			if rt.MaxRHSRelDiff > diff.RoundTripVoltTol {
				t.Errorf("rhs drift %.3e above %.0e", rt.MaxRHSRelDiff, diff.RoundTripVoltTol)
			}
			if rt.VoltRelErr > diff.RoundTripVoltTol {
				t.Errorf("round-trip voltage error %.3e above %.0e", rt.VoltRelErr, diff.RoundTripVoltTol)
			}
		})
	}
}

// TestCheckRecordsConvergenceColumns: the harness report's runs must
// carry the flight-recorder columns — a condition estimate and a
// converged termination for every run.
func TestCheckRecordsConvergenceColumns(t *testing.T) {
	rep, err := diff.Check(&gen.Spec{Name: "cols", Base: "ddr3-off", Pitch: 1.0, Seed: 1},
		diff.Options{SkipRoundTrip: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Termination != obs.TermConverged {
			t.Errorf("%s: termination = %q, want %q", r.Method, r.Termination, obs.TermConverged)
		}
		if r.CondEst <= 1 {
			t.Errorf("%s: cond_est = %g, want > 1", r.Method, r.CondEst)
		}
	}
}

// TestSizedSweep cross-checks the iterative solvers on the on-the-fly
// meshes above the dense-oracle regime. Long mode only: the largest mesh
// tops 12k nodes.
func TestSizedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sized sweep runs in long mode only")
	}
	for _, base := range []string{"ddr3-off", "hmc"} {
		for level := 0; level < gen.SizedLevels(); level++ {
			s, err := gen.Sized(base, level)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(s.Name, func(t *testing.T) {
				t.Parallel()
				rep, err := diff.Check(s, diff.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Nodes <= diff.DefaultOracleMaxN {
					t.Errorf("sized mesh has only %d nodes — not exercising the cross-check regime", rep.Nodes)
				}
				// Cross-check bound: iterative solvers against each other at
				// DefaultTol. Same tolerance story as the oracle bound.
				if rep.MaxRelErr > diff.OracleRelTol {
					t.Errorf("cross-check disagreement %.3e above %.0e", rep.MaxRelErr, diff.OracleRelTol)
				}
				if !rep.RestampExact {
					t.Error("restamped matrix not bit-identical to full build")
				}
				if rep.RoundTrip == nil || !rep.RoundTrip.StructEqual {
					t.Error("netlist round trip lost the sparsity pattern")
				}
			})
		}
	}
}

// TestRelErr pins the harness's error metric.
func TestRelErr(t *testing.T) {
	cases := []struct {
		x, ref []float64
		want   float64
	}{
		{[]float64{1, 2}, []float64{1, 2}, 0},
		{[]float64{1.5, 2}, []float64{1, 2}, 0.25},
		{[]float64{0, 0}, []float64{0, 0}, 0},
	}
	for _, c := range cases {
		if got := diff.RelErr(c.x, c.ref); got != c.want {
			t.Errorf("RelErr(%v, %v) = %g, want %g", c.x, c.ref, got, c.want)
		}
	}
	if got := diff.RelErr([]float64{1}, []float64{0}); got <= 1e300 {
		t.Errorf("nonzero vs zero reference = %g, want +Inf", got)
	}
}

// FuzzDifferentialSolve drives the full differential suite over the
// generator's knob space: any reachable small design must keep every
// solver within the oracle bound and restamp bit-exactly. Inputs that
// don't expand to a valid design are skipped — the fuzzer's job is to
// find a mesh the solvers disagree on, not to exercise validation.
func FuzzDifferentialSolve(f *testing.F) {
	// Seeds mirror corpus families: base grid, TSV styles, failures, rails.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(100), uint16(0), uint64(1))
	f.Add(uint8(3), uint8(1), uint8(0), uint8(0), uint16(100), uint16(64), uint64(4))
	f.Add(uint8(3), uint8(3), uint8(0), uint8(0), uint16(100), uint16(384), uint64(6))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(33), uint16(100), uint16(0), uint64(8))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint16(100), uint16(0), uint64(11))
	f.Add(uint8(2), uint8(0), uint8(1), uint8(10), uint16(90), uint16(128), uint64(42))
	bases := []string{"ddr3-off", "ddr3-on", "wideio", "hmc"}
	styles := []string{"", "C", "E", "D"}
	f.Fuzz(func(t *testing.T, base, style, rails, failCenti uint8, pitchCenti, count uint16, seed uint64) {
		s := &gen.Spec{
			Name: "fuzz",
			Base: bases[int(base)%len(bases)],
			// Pitch in [0.9, 2.17]mm keeps every mesh inside the dense-oracle
			// regime so the fuzz iteration stays fast.
			Pitch:    0.9 + float64(pitchCenti%128)/100,
			TSVStyle: styles[int(style)%len(styles)],
			TSVCount: int(count) % 512,
			FailRate: float64(failCenti%90) / 100,
			Rails:    int(rails) % 3,
			Seed:     seed,
		}
		rep, err := diff.Check(s, diff.Options{SkipRoundTrip: true})
		if err != nil {
			if _, berr := s.Build(); berr != nil {
				t.Skip() // invalid knob combination, not a solver bug
			}
			t.Fatal(err)
		}
		// Looser than the corpus's OracleRelTol: forward error grows with
		// the condition number, and the fuzzer deliberately reaches badly
		// conditioned designs (e.g. heavy TSV failure on center placement)
		// that the curated corpus excludes. 100× headroom still catches any
		// genuine solver defect. See DESIGN.md §5g.
		const fuzzRelTol = 100 * diff.OracleRelTol
		if rep.MaxRelErr > fuzzRelTol {
			t.Errorf("solver disagreement %.3e above %.0e on %+v", rep.MaxRelErr, fuzzRelTol, *s)
		}
		if !rep.RestampExact {
			t.Errorf("restamp not bit-exact on %+v", *s)
		}
	})
}
