package rmesh_test

import (
	"math"
	"runtime"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
)

// coarseOffChip is the off-chip stacked-DDR3 baseline at a coarse pitch,
// so builds and solves finish in milliseconds.
func coarseOffChip(t testing.TB) *pdn.Spec {
	t.Helper()
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.5
	return spec
}

// loadedRHS builds the benchmark's default-state right-hand side for a
// model, mirroring what the irdrop layer does (which this package cannot
// import).
func loadedRHS(t testing.TB, m *rmesh.Model, b *bench3d.Benchmark) []float64 {
	t.Helper()
	spec := m.Spec
	st, err := memstate.FromCounts(b.DefaultCounts, memstate.WorstCaseEdge(spec.DRAM.NumBanks))
	if err != nil {
		t.Fatal(err)
	}
	rhs := m.BaseRHS()
	for d := 0; d < spec.NumDRAM; d++ {
		var banks []int
		if d < len(st.Dies) {
			banks = st.Dies[d]
		}
		loads, err := b.DRAMPower.Loads(spec.DRAM, banks, b.DefaultIO)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDRAMLoads(rhs, d, loads); err != nil {
			t.Fatal(err)
		}
	}
	if spec.OnLogic {
		loads, err := b.LogicPower.Loads(spec.Logic)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddLogicLoads(rhs, loads); err != nil {
			t.Fatal(err)
		}
	}
	return rhs
}

// assertModelsIdentical compares the stamped numerics of two models
// bitwise: matrix values, supply ties, and named links.
func assertModelsIdentical(t *testing.T, full, re *rmesh.Model) {
	t.Helper()
	if full.N() != re.N() {
		t.Fatalf("node count %d vs %d", full.N(), re.N())
	}
	if len(full.Matrix.Val) != len(re.Matrix.Val) {
		t.Fatalf("nnz %d vs %d", len(full.Matrix.Val), len(re.Matrix.Val))
	}
	for i := range full.Matrix.Val {
		if math.Float64bits(full.Matrix.Val[i]) != math.Float64bits(re.Matrix.Val[i]) {
			t.Fatalf("Matrix.Val[%d] = %x vs %x", i,
				math.Float64bits(full.Matrix.Val[i]), math.Float64bits(re.Matrix.Val[i]))
		}
	}
	if len(full.Ties) != len(re.Ties) {
		t.Fatalf("ties %d vs %d", len(full.Ties), len(re.Ties))
	}
	for i := range full.Ties {
		if full.Ties[i] != re.Ties[i] {
			t.Fatalf("Ties[%d] = %+v vs %+v", i, full.Ties[i], re.Ties[i])
		}
	}
	if len(full.Links) != len(re.Links) {
		t.Fatalf("links %d vs %d", len(full.Links), len(re.Links))
	}
	for i := range full.Links {
		if full.Links[i] != re.Links[i] {
			t.Fatalf("Links[%d] = %+v vs %+v", i, full.Links[i], re.Links[i])
		}
	}
	if full.Resistors != re.Resistors {
		t.Fatalf("resistors %d vs %d", full.Resistors, re.Resistors)
	}
}

// assertSolvesIdentical solves both models against the same RHS and
// requires bit-identical node voltages.
func assertSolvesIdentical(t *testing.T, full, re *rmesh.Model, b *bench3d.Benchmark) {
	t.Helper()
	opts := solve.Options{CGOptions: solve.CGOptions{Tol: 1e-9, MaxIter: 40000}}
	vFull, _, err := full.Solve(loadedRHS(t, full, b), opts)
	if err != nil {
		t.Fatal(err)
	}
	vRe, _, err := re.Solve(loadedRHS(t, re, b), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vFull {
		if math.Float64bits(vFull[i]) != math.Float64bits(vRe[i]) {
			t.Fatalf("v[%d] = %x vs %x", i,
				math.Float64bits(vFull[i]), math.Float64bits(vRe[i]))
		}
	}
}

// scaleUsage returns a value-only variant of the spec: same usage support
// (hence the same topology key), scaled magnitudes.
func scaleUsage(spec *pdn.Spec, f float64) *pdn.Spec {
	s := spec.Clone()
	s.Usage = map[string]float64{}
	for k, v := range spec.Usage {
		s.Usage[k] = v * f
	}
	if len(spec.LogicUsage) > 0 {
		s.LogicUsage = map[string]float64{}
		for k, v := range spec.LogicUsage {
			s.LogicUsage[k] = v * f
		}
	}
	return s
}

// TestRestampBitIdenticalToFullBuild is the two-phase pipeline's hard
// contract: for each paper design, models minted from a frozen Topology —
// for its own spec and for a value-only variant — are bitwise
// indistinguishable from a from-scratch rmesh.Build: matrix values, ties,
// links, and the solved node voltages.
func TestRestampBitIdenticalToFullBuild(t *testing.T) {
	benches, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			spec := b.Spec.Clone()
			spec.MeshPitch = 0.5
			topo, err := rmesh.BuildTopology(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*pdn.Spec{spec, scaleUsage(spec, 0.9)} {
				full, err := rmesh.Build(s)
				if err != nil {
					t.Fatal(err)
				}
				re, err := topo.NewModel(s)
				if err != nil {
					t.Fatal(err)
				}
				assertModelsIdentical(t, full, re)
				assertSolvesIdentical(t, full, re, b)
			}
		})
	}
}

// TestRestampRejectsShapeChange: a spec whose topology key differs (here a
// different TSV count) must be refused by NewModel, and the topology goes
// on minting models for its own shape.
func TestRestampRejectsShapeChange(t *testing.T) {
	spec := coarseOffChip(t)
	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	other := spec.Clone()
	other.TSVCount = 64
	if _, err := topo.NewModel(other); err == nil {
		t.Error("NewModel accepted a TSV-count change")
	}
	if _, err := topo.NewModel(spec); err != nil {
		t.Fatalf("topology unusable after a rejected spec: %v", err)
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestModelRetainsOnlyItsMatrix pins the memory contract: a model keeps
// what it solves with, not the stamp stream or the pattern's per-stamp
// slots it was built through. ddr3-off at full pitch, built by rmesh.Build
// and by BuildTopology + NewModel with the topology dropped, may each
// retain at most 1.5× its matrix bytes (12 B per entry, 4 B per row
// pointer); the rest is its layers, ties and links.
func TestModelRetainsOnlyItsMatrix(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec
	for _, c := range []struct {
		name  string
		build func() (*rmesh.Model, error)
	}{
		{"Build", func() (*rmesh.Model, error) { return rmesh.Build(spec) }},
		{"NewModel", func() (*rmesh.Model, error) {
			topo, err := rmesh.BuildTopology(spec)
			if err != nil {
				return nil, err
			}
			return topo.NewModel(spec)
		}},
	} {
		before := heapAlloc()
		m, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		retained := heapAlloc() - before
		matrix := 12*m.Matrix.NNZ() + 4*len(m.Matrix.RowPtr)
		ratio := float64(retained) / float64(matrix)
		t.Logf("%s: %d nodes retain %d B, %.2f× the %d B matrix", c.name, m.N(), retained, ratio, matrix)
		if ratio > 1.5 {
			t.Errorf("%s: the model retains %.2f× its matrix bytes, want at most 1.5×", c.name, ratio)
		}
		runtime.KeepAlive(m)
	}
}
