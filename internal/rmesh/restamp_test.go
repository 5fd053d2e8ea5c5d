package rmesh_test

import (
	"math"
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
// contract: for each paper design, a model minted from a frozen Topology
// (and then restamped to a value-only variant) is bitwise indistinguishable
// from a from-scratch rmesh.Build — matrix values, ties, links, and the solved
// node voltages.
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
			full, err := rmesh.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := rmesh.BuildTopology(spec)
			if err != nil {
				t.Fatal(err)
			}
			re, err := topo.NewModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			if re.Topology() != topo {
				t.Fatal("minted model does not reference its topology")
			}
			assertModelsIdentical(t, full, re)
			assertSolvesIdentical(t, full, re, b)

			// Value-only variant: restamp in place vs a fresh full build.
			scaled := scaleUsage(spec, 0.9)
			full2, err := rmesh.Build(scaled)
			if err != nil {
				t.Fatal(err)
			}
			if err := re.Restamp(scaled); err != nil {
				t.Fatal(err)
			}
			assertModelsIdentical(t, full2, re)
			assertSolvesIdentical(t, full2, re, b)
		})
	}
}

// TestRestampReusesMatrixMemory guards the value-sweep cost model: a
// restamp must rewrite the preallocated CSR in place, never allocate a
// fresh matrix, and stay under a small fixed allocation budget (key
// strings and the stamp-recorder header — nothing proportional to nnz).
func TestRestampReusesMatrixMemory(t *testing.T) {
	spec := coarseOffChip(t)
	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	matrix := m.Matrix
	val := &m.Matrix.Val[0]
	ties := &m.Ties[0]
	scaled := scaleUsage(spec, 0.9)
	specs := [2]*pdn.Spec{spec, scaled}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := m.Restamp(specs[i%2]); err != nil {
			t.Fatal(err)
		}
	})
	if m.Matrix != matrix {
		t.Error("Restamp replaced the matrix")
	}
	if &m.Matrix.Val[0] != val {
		t.Error("Restamp reallocated the CSR value array")
	}
	if &m.Ties[0] != ties {
		t.Error("Restamp reallocated the tie slice")
	}
	// A fresh matrix would cost O(nnz) allocations worth of floats; the
	// observed steady-state cost is ~60 small allocations (topology-key
	// strings). 200 leaves slack without letting a matrix copy through.
	if allocs > 200 {
		t.Errorf("Restamp allocs/op = %.0f, want <= 200 (no matrix-sized allocations)", allocs)
	}
	t.Logf("Restamp allocs/op = %.0f", allocs)
}

// TestRestampRejectsShapeChange: a spec whose topology key differs (here a
// different TSV count) must be refused by both Restamp and NewModel.
func TestRestampRejectsShapeChange(t *testing.T) {
	spec := coarseOffChip(t)
	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	other := spec.Clone()
	other.TSVCount = 64
	if err := m.Restamp(other); err == nil {
		t.Error("Restamp accepted a TSV-count change")
	}
	if _, err := topo.NewModel(other); err == nil {
		t.Error("NewModel accepted a TSV-count change")
	}
	// The model must still be usable with its original values.
	if err := m.Restamp(spec); err != nil {
		t.Fatalf("model unusable after rejected restamp: %v", err)
	}
}

// TestBuildModelHasTopology: the one-shot rmesh.Build path also carries its
// frozen topology, so callers can upgrade to the two-phase API lazily.
func TestBuildModelHasTopology(t *testing.T) {
	spec := coarseOffChip(t)
	m, err := rmesh.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo := m.Topology()
	if topo == nil {
		t.Fatal("rmesh.Build returned a model without a topology")
	}
	if topo.N() != m.N() {
		t.Errorf("topology N = %d, model N = %d", topo.N(), m.N())
	}
	if topo.NNZ() != len(m.Matrix.Val) {
		t.Errorf("topology NNZ = %d, matrix nnz = %d", topo.NNZ(), len(m.Matrix.Val))
	}
}
