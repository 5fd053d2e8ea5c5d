package rmesh

import (
	"errors"
	"math"
	"testing"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/solve"
	"pdn3d/internal/tech"
)

func offChipSpec(t testing.TB) *pdn.Spec {
	t.Helper()
	fp, err := floorplan.DDR3Die(floorplan.DefaultDDR3())
	if err != nil {
		t.Fatal(err)
	}
	return &pdn.Spec{
		Name:     "ddr3-off",
		NumDRAM:  4,
		DRAM:     fp,
		DRAMTech: tech.DRAM20(1.5),
		Usage:    map[string]float64{"M2": 0.10, "M3": 0.20},
		Bonding:  pdn.F2B,
		TSVStyle: pdn.EdgeTSV,
		TSVCount: 33,
	}
}

func onChipSpec(t testing.TB) *pdn.Spec {
	t.Helper()
	s := offChipSpec(t)
	lf, err := floorplan.T2Die(floorplan.DefaultT2())
	if err != nil {
		t.Fatal(err)
	}
	s.Name = "ddr3-on"
	s.OnLogic = true
	s.Logic = lf
	s.LogicTech = tech.Logic28(1.5)
	s.LogicUsage = map[string]float64{"M1": 0.10, "M6": 0.30}
	return s
}

// solveState builds the model, loads the given state at the given I/O
// activity (plus optional logic power), solves, and returns IR drops.
func solveState(t testing.TB, spec *pdn.Spec, state memstate.State, io float64, logicPower float64) (*Model, []float64) {
	t.Helper()
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rhs := m.BaseRHS()
	pm := powermap.StackedDDR3Power()
	for d := 0; d < spec.NumDRAM; d++ {
		var banks []int
		if d < len(state.Dies) {
			banks = state.Dies[d]
		}
		loads, err := pm.Loads(spec.DRAM, banks, io)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDRAMLoads(rhs, d, loads); err != nil {
			t.Fatal(err)
		}
	}
	if spec.OnLogic && logicPower > 0 {
		lm := powermap.T2Power(logicPower)
		loads, err := lm.Loads(spec.Logic)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddLogicLoads(rhs, loads); err != nil {
			t.Fatal(err)
		}
	}
	v, _, err := m.Solve(rhs, solve.Options{CGOptions: solve.CGOptions{Tol: 1e-9, MaxIter: 40000}})
	if err != nil {
		t.Fatal(err)
	}
	return m, m.IRDrop(v)
}

func defaultState(t testing.TB) memstate.State {
	t.Helper()
	s, err := memstate.FromCounts([]int{0, 0, 0, 2}, memstate.WorstCaseEdge(8))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildOffChip(t *testing.T) {
	m, err := Build(offChipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 8 {
		t.Errorf("layers = %d, want 8 (2 per die x 4 dies)", len(m.Layers))
	}
	if m.N() < 1000 {
		t.Errorf("suspiciously small mesh: %d nodes", m.N())
	}
	if !m.Matrix.IsSymmetric(1e-12) {
		t.Error("conductance matrix must be symmetric")
	}
	if len(m.Ties) != 33 {
		t.Errorf("ties = %d, want 33 (one per landing)", len(m.Ties))
	}
}

// TestMeshNodeBudget: a pitch whose mesh exceeds MaxNodes — including
// one so fine that the grid dimensions overflow an int — fails with a
// *SizeError from CheckSize and from Build alike, before any matrix is
// allocated; the finest benchmarked pitch stays well inside the budget.
func TestMeshNodeBudget(t *testing.T) {
	for _, pitch := range []float64{1e-6, 1e-3, 1e-300} {
		s := offChipSpec(t)
		s.MeshPitch = pitch
		var se *SizeError
		if err := CheckSize(s); !errors.As(err, &se) || se.Nodes <= MaxNodes {
			t.Fatalf("pitch %g: CheckSize = %v, want *SizeError above MaxNodes", pitch, err)
		}
		if _, err := Build(s); !errors.As(err, &se) {
			t.Fatalf("pitch %g: Build = %v, want *SizeError", pitch, err)
		}
	}
	s := offChipSpec(t)
	s.MeshPitch = 0.07
	if err := CheckSize(s); err != nil {
		t.Fatalf("pitch 0.07: %v", err)
	}
}

func TestOffChipBaselineIRMagnitude(t *testing.T) {
	_, ir := solveState(t, offChipSpec(t), defaultState(t), 1.0, 0)
	var mx float64
	for _, v := range ir {
		if v > mx {
			mx = v
		}
	}
	// Calibration target: paper's off-chip baseline is 30.03 mV. Before
	// final calibration, just require the right order of magnitude and
	// positivity.
	if mx <= 0.001 || mx > 0.5 {
		t.Errorf("max IR = %.4f V, expected tens of millivolts", mx)
	}
	t.Logf("off-chip baseline max IR = %.2f mV", mx*1000)
	for i, v := range ir {
		if v < -1e-6 {
			t.Fatalf("negative IR drop %g at node %d", v, i)
		}
	}
}

func TestCurrentConservation(t *testing.T) {
	// Total current through ties equals total load current.
	spec := offChipSpec(t)
	m, ir := solveState(t, spec, defaultState(t), 1.0, 0)
	var tieI float64
	for _, tie := range m.Ties {
		tieI += tie.G * (m.VDD - (m.VDD - ir[tie.Node])) // g * (VDD - v)
	}
	pm := powermap.StackedDDR3Power()
	wantP := pm.DiePower(2, 1.0) + 3*pm.DiePower(0, 1.0)
	wantI := wantP / 1000 / m.VDD // mW -> A
	if math.Abs(tieI-wantI) > wantI*1e-3 {
		t.Errorf("tie current %.4f A, want %.4f A", tieI, wantI)
	}
}

func TestTopDieWorseThanBottomDie(t *testing.T) {
	spec := offChipSpec(t)
	top, _ := memstate.FromCounts([]int{0, 0, 0, 2}, memstate.WorstCaseEdge(8))
	bot, _ := memstate.FromCounts([]int{2, 0, 0, 0}, memstate.WorstCaseEdge(8))
	m1, ir1 := solveState(t, spec, top, 1.0, 0)
	m2, ir2 := solveState(t, spec, bot, 1.0, 0)
	irTop := m1.DieMaxIR(ir1, 3)
	irBot := m2.DieMaxIR(ir2, 0)
	if irTop <= irBot {
		t.Errorf("top-die activity IR %.2f mV should exceed bottom-die %.2f mV (longer TSV path)",
			irTop*1000, irBot*1000)
	}
	t.Logf("0-0-0-2: %.2f mV, 2-0-0-0: %.2f mV", irTop*1000, irBot*1000)
}

func TestOnChipCouplingRaisesIR(t *testing.T) {
	off := offChipSpec(t)
	_, irOff := solveState(t, off, defaultState(t), 1.0, 0)
	on := onChipSpec(t)
	mOn, irOn := solveState(t, on, defaultState(t), 1.0, 9000)
	var maxOff float64
	for _, v := range irOff {
		if v > maxOff {
			maxOff = v
		}
	}
	var maxOnDRAM float64
	for d := 0; d < 4; d++ {
		if v := mOn.DieMaxIR(irOn, d); v > maxOnDRAM {
			maxOnDRAM = v
		}
	}
	if maxOnDRAM <= maxOff {
		t.Errorf("on-chip DRAM IR %.2f mV should exceed off-chip %.2f mV (logic coupling)",
			maxOnDRAM*1000, maxOff*1000)
	}
	logicIR := mOn.DieMaxIR(irOn, DieLogic)
	t.Logf("off: %.2f mV, on: %.2f mV, logic: %.2f mV", maxOff*1000, maxOnDRAM*1000, logicIR*1000)
}

func TestMoreMetalReducesIR(t *testing.T) {
	base := offChipSpec(t)
	_, ir1 := solveState(t, base, defaultState(t), 1.0, 0)
	dbl := offChipSpec(t)
	dbl.Usage = map[string]float64{"M2": 0.20, "M3": 0.40}
	_, ir2 := solveState(t, dbl, defaultState(t), 1.0, 0)
	mx := func(ir []float64) (m float64) {
		for _, v := range ir {
			if v > m {
				m = v
			}
		}
		return
	}
	m1, m2 := mx(ir1), mx(ir2)
	if m2 >= m1 {
		t.Fatalf("2x metal usage should lower IR: %.2f -> %.2f mV", m1*1000, m2*1000)
	}
	red := (m1 - m2) / m1
	t.Logf("2x PDN metal: %.2f -> %.2f mV (-%.1f%%), paper reports >40%%", m1*1000, m2*1000, red*100)
}
