package exp

import (
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/report"
	"pdn3d/internal/speckey"
)

func baseSpec(t testing.TB) *pdn.Spec {
	t.Helper()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	return b.Spec.Clone()
}

// Distinct specs must never share a key. Each mutation below either changes
// a field the old "%v"-joined key dropped or formatted lossily, or shifts
// content between adjacent fields in a way delimiter-joined formatting can
// absorb.
func TestSpecKeyDistinguishesSpecs(t *testing.T) {
	base := baseSpec(t)
	muts := []struct {
		name string
		mut  func(*pdn.Spec)
	}{
		// Lost by the old key entirely.
		{"WiresPerDie", func(s *pdn.Spec) { s.WiresPerDie = 16 }},
		// Truncated by the old %.3f: both round to "0.200".
		{"MeshPitch tiny delta", func(s *pdn.Spec) { s.MeshPitch = base.EffMeshPitch() + 1e-4 }},
		// Field-content / delimiter ambiguity.
		{"Name with delimiter", func(s *pdn.Spec) { s.Name = s.Name + "|33" }},
		{"NumDRAM", func(s *pdn.Spec) { s.NumDRAM = 2 }},
		{"Usage", func(s *pdn.Spec) { s.Usage["M2"] *= 1.0001 }},
		{"TSVCount", func(s *pdn.Spec) { s.TSVCount = 34 }},
		{"TSVStyle", func(s *pdn.Spec) { s.TSVStyle = pdn.CenterTSV }},
		{"Bonding", func(s *pdn.Spec) { s.Bonding = pdn.F2F }},
		{"RDL", func(s *pdn.Spec) { s.RDL = pdn.RDLInterface }},
		{"WireBond", func(s *pdn.Spec) { s.WireBond = true }},
		{"AlignTSV", func(s *pdn.Spec) { s.AlignTSV = true }},
		{"FailedTSVs", func(s *pdn.Spec) { s.FailedTSVs = map[int]bool{3: true} }},
	}
	baseKey := speckey.Spec(base, false)
	seen := map[string]string{"base": baseKey}
	for _, m := range muts {
		s := base.Clone()
		m.mut(s)
		k := speckey.Spec(s, false)
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("spec mutated by %q collides with %q:\n%s", m.name, prev, k)
			}
		}
		seen[m.name] = k
	}
	if k := speckey.Spec(base, true); k == baseKey {
		t.Error("withLogic must change the key")
	}
}

// Identical specs (independent clones) must share a key, or caching breaks.
func TestSpecKeyStableAcrossClones(t *testing.T) {
	base := baseSpec(t)
	base.FailedTSVs = map[int]bool{7: true, 2: true, 19: true}
	c1, c2 := base.Clone(), base.Clone()
	for i := 0; i < 20; i++ { // map iteration order must not leak in
		if speckey.Spec(c1, true) != speckey.Spec(c2, true) {
			t.Fatal("clones produced different keys")
		}
	}
}

// Hammer the Runner's caches from many goroutines: every distinct design
// must be built exactly once, with one full mesh build and no restamp, its
// one (state, io) point solved exactly once, and all callers must share
// the one analyzer and the one answer. Run with -race.
func TestRunnerConcurrentExactlyOnce(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := NewRunner(Config{MeshPitch: 0.5, Obs: reg})
	specs := make([]*pdn.Spec, 3)
	for i, tc := range []int{15, 33, 120} {
		s := r.prepare(b.Spec)
		s.TSVCount = tc
		specs[i] = s
	}
	const goroutinesPerSpec = 12
	type got struct {
		a   *irdrop.Analyzer
		res *irdrop.Result
	}
	gots := make([][]got, len(specs))
	for i := range gots {
		gots[i] = make([]got, goroutinesPerSpec)
	}
	var wg sync.WaitGroup
	for si, s := range specs {
		for g := 0; g < goroutinesPerSpec; g++ {
			wg.Add(1)
			go func(si, g int, s *pdn.Spec) {
				defer wg.Done()
				a, err := r.analyzer(b, s)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := r.analyze(b, s, defaultState(b), b.DefaultIO)
				if err != nil {
					t.Error(err)
					return
				}
				gots[si][g] = got{a, res}
			}(si, g, s)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for si := range gots {
		for g := 1; g < goroutinesPerSpec; g++ {
			if gots[si][g].a != gots[si][0].a {
				t.Errorf("spec %d: goroutine %d got a different analyzer — built more than once", si, g)
			}
			if gots[si][g].res != gots[si][0].res {
				t.Errorf("spec %d: goroutine %d got a different answer — solved more than once", si, g)
			}
		}
	}
	counters := reg.Snapshot().Counters
	if n := counters["exp.analyzer_cache.misses"]; n != int64(len(specs)) {
		t.Errorf("runner built %d analyzers for %d distinct designs", n, len(specs))
	}
	if builds, restamps := counters["rmesh.builds"], counters["rmesh.restamps"]; builds != int64(len(specs)) || restamps != 0 {
		t.Errorf("rmesh.builds %d, rmesh.restamps %d: want one full build per design (%d) and no restamp",
			builds, restamps, len(specs))
	}
	// Each design's (state, io) point must have been solved exactly once in
	// total, despite 12 concurrent callers.
	if misses, solves := counters["exp.result_cache.misses"], counters["rmesh.solves"]; misses != int64(len(specs)) || solves != int64(len(specs)) {
		t.Errorf("exp.result_cache.misses %d, rmesh.solves %d: want one per distinct point (%d)",
			misses, solves, len(specs))
	}
}

// TestRunnerGroupedPointsExactlyOnce runs Table 4 and Table 5 twice each,
// concurrently with single-point analyze calls, on one runner. The
// tables solve each bonding's states as one group, and both tables list
// the overlapping 0-0-2-2 state at 50 % I/O on both bondings, which the
// analyze calls revisit with the default state that opens Table 5: every
// distinct point must still be solved exactly once, one cache miss each,
// and the tables must read as on a runner of their own.
func TestRunnerGroupedPointsExactlyOnce(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MeshPitch: 0.6, Requests: 1000, Workers: 4}
	tables := []func(*Runner) (*report.Table, error){(*Runner).Table4, (*Runner).Table5}
	want := make([]string, len(tables))
	for i, table := range tables {
		tab, err := table(NewRunner(cfg))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tab.String()
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	r := NewRunner(cfg)
	f2b := r.prepare(b.Spec)
	f2f := f2b.Clone()
	f2f.Bonding = pdn.F2F
	overlap := memstate.MustPairState("", "", memstate.PairA, memstate.PairA)
	if counts, err := memstate.FromCounts([]int{0, 0, 2, 2}, memstate.WorstCaseEdge(b.Spec.DRAM.NumBanks)); err != nil || counts.Key() != overlap.Key() {
		t.Fatalf("Table 5's 0-0-2-2 state is not Table 4's 0-0-2a-2a (%v)", err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, table := range tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tab, err := table(r)
				if err != nil {
					t.Error(err)
					return
				}
				if got := tab.String(); got != want[i] {
					t.Errorf("on a shared runner:\n%s\nwant:\n%s", got, want[i])
				}
			}()
		}
		for _, spec := range []*pdn.Spec{f2b, f2f} {
			for _, p := range []struct {
				st memstate.State
				io float64
			}{{overlap, 0.5}, {defaultState(b), b.DefaultIO}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := r.analyze(b, spec, p.st, p.io); err != nil {
						t.Error(err)
					}
				}()
			}
		}
	}
	wg.Wait()
	// Table 4: 7 states x 2 bondings; Table 5: 6 rows x 2 bondings; the
	// overlapping state is in both on each bonding.
	const distinct = 7*2 + 6*2 - 2
	counters := reg.Snapshot().Counters
	if solves, misses := counters["rmesh.solves"], counters["exp.result_cache.misses"]; solves != distinct || misses != distinct {
		t.Errorf("rmesh.solves %d, exp.result_cache.misses %d: want one per distinct point (%d)", solves, misses, distinct)
	}
}
