package exp

import (
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
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
	baseKey := specKey(base, false)
	seen := map[string]string{"base": baseKey}
	for _, m := range muts {
		s := base.Clone()
		m.mut(s)
		k := specKey(s, false)
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("spec mutated by %q collides with %q:\n%s", m.name, prev, k)
			}
		}
		seen[m.name] = k
	}
	if k := specKey(base, true); k == baseKey {
		t.Error("withLogic must change the key")
	}
}

// Identical specs (independent clones) must share a key, or caching breaks.
func TestSpecKeyStableAcrossClones(t *testing.T) {
	base := baseSpec(t)
	base.FailedTSVs = map[int]bool{7: true, 2: true, 19: true}
	c1, c2 := base.Clone(), base.Clone()
	for i := 0; i < 20; i++ { // map iteration order must not leak in
		if specKey(c1, true) != specKey(c2, true) {
			t.Fatal("clones produced different keys")
		}
	}
}

// Hammer the Runner's caches from many goroutines: every distinct design
// must be built exactly once, with one full mesh build and no restamp, and
// all callers must share the one analyzer. Run with -race.
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
	got := make([][]interface{}, len(specs))
	for i := range got {
		got[i] = make([]interface{}, goroutinesPerSpec)
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
				// Drive a real analysis through the shared analyzer too.
				if _, err := a.AnalyzeCounts(b.DefaultCounts, b.DefaultIO); err != nil {
					t.Error(err)
					return
				}
				got[si][g] = a
			}(si, g, s)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for si := range got {
		for g := 1; g < goroutinesPerSpec; g++ {
			if got[si][g] != got[si][0] {
				t.Errorf("spec %d: goroutine %d got a different analyzer — built more than once", si, g)
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
	for si := range specs {
		a := got[si][0].(interface{ Solves() int })
		if n := a.Solves(); n != 1 {
			t.Errorf("spec %d: %d solves for one distinct (state, io) key", si, n)
		}
	}
}
