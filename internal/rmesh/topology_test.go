package rmesh

import (
	"errors"
	"strings"
	"testing"

	"pdn3d/internal/geom"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/sparse"
)

func countLinks(m *Model, k LinkKind) int {
	n := 0
	for _, l := range m.Links {
		if l.Kind == k {
			n++
		}
	}
	return n
}

func TestF2BTopology(t *testing.T) {
	spec := offChipSpec(t)
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Three F2B interfaces x 33 TSVs.
	if got := countLinks(m, LinkTSV); got != 3*33 {
		t.Errorf("TSV links = %d, want 99", got)
	}
	if got := countLinks(m, LinkB2B); got != 0 {
		t.Errorf("B2B links = %d in an F2B stack", got)
	}
	if got := countLinks(m, LinkLanding); got != 33 {
		t.Errorf("landing links = %d, want 33", got)
	}
}

func TestF2FTopology(t *testing.T) {
	spec := offChipSpec(t)
	spec.Bonding = pdn.F2F
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One B2B interface between the two pairs.
	if got := countLinks(m, LinkB2B); got != 33 {
		t.Errorf("B2B links = %d, want 33", got)
	}
	if got := countLinks(m, LinkTSV); got != 0 {
		t.Errorf("TSV links = %d, want 0 (pairs use F2F carpets)", got)
	}
}

func TestRDLInterfaceTopology(t *testing.T) {
	spec := offChipSpec(t)
	spec.RDL = pdn.RDLInterface
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Layer("rdl/if"); !ok {
		t.Fatal("interface RDL layer missing")
	}
	// RDL links: one per TSV site down to the bottom die.
	if got := countLinks(m, LinkRDL); got != 33 {
		t.Errorf("RDL links = %d, want 33", got)
	}
	// Landings tie into the RDL, not the bottom die.
	rdl, _ := m.Layer("rdl/if")
	for _, tie := range m.Ties {
		if !rdl.Contains(tie.Node) {
			t.Fatalf("tie node %d outside the RDL layer", tie.Node)
		}
	}
}

func TestRDLAllTopology(t *testing.T) {
	spec := offChipSpec(t)
	spec.RDL = pdn.RDLAll
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rdlLayers := 0
	for _, l := range m.Layers {
		if strings.HasSuffix(l.Key, "/RDL") {
			rdlLayers++
		}
	}
	if rdlLayers != 4 {
		t.Errorf("backside RDL layers = %d, want one per die", rdlLayers)
	}
	// Each of the 3 interfaces splits into TSV (down) + RDL (up) legs,
	// and the top die's RDL joins its face metal through its own TSVs.
	if got := countLinks(m, LinkTSV); got != 4*33 {
		t.Errorf("TSV legs = %d, want 132", got)
	}
	if got := countLinks(m, LinkRDL); got != 3*33 {
		t.Errorf("RDL legs = %d, want 99", got)
	}
}

// Every die's backside RDL reaches a supply tie under either bonding,
// with or without bond wires: the build's tie walk would refuse the
// design otherwise.
func TestRDLAllReachesTies(t *testing.T) {
	for _, bonding := range []pdn.Bonding{pdn.F2B, pdn.F2F} {
		for _, wire := range []bool{false, true} {
			spec := offChipSpec(t)
			spec.RDL = pdn.RDLAll
			spec.Bonding = bonding
			spec.WireBond = wire
			if _, err := Build(spec); err != nil {
				t.Errorf("%v wirebond=%v: %v", bonding, wire, err)
			}
		}
	}
}

// checkTied on a hand-built four-node model: a tied pair and a pair joined
// only to each other. The loose pair is a floating island, reported with
// its size and layer; one link from it to the tied pair clears the error.
func TestCheckTiedFindsFloatingPair(t *testing.T) {
	build := func(bridge bool) *Model {
		b := sparse.NewBuilder(4)
		b.AddToGround(0, 1)
		b.AddConductance(0, 1, 1)
		b.AddConductance(2, 3, 1)
		if bridge {
			b.AddConductance(1, 2, 1)
		}
		pair := geom.Grid{NX: 2, NY: 1}
		return &Model{
			Matrix: b.Compress(),
			Ties:   []Tie{{Node: 0, G: 1}},
			Layers: []*Layer{
				{Key: "dram0/M1", Grid: pair, Offset: 0},
				{Key: "dram0/RDL", Grid: pair, Offset: 2},
			},
		}
	}
	err := build(false).checkTied()
	var fe *FloatingError
	if !errors.As(err, &fe) {
		t.Fatalf("checkTied = %v, want a *FloatingError", err)
	}
	if fe.Nodes != 2 || fe.Layer != "dram0/RDL" {
		t.Errorf("FloatingError = %+v, want 2 nodes in dram0/RDL", fe)
	}
	if err := build(true).checkTied(); err != nil {
		t.Errorf("bridged model: %v", err)
	}
}

func TestWireBondTopology(t *testing.T) {
	spec := offChipSpec(t)
	spec.WireBond = true
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.NumDRAM * spec.EffWiresPerDie()
	if got := countLinks(m, LinkWire); got != want {
		t.Errorf("wire ties = %d, want %d", got, want)
	}
}

func TestDedicatedTSVDecouplesLogic(t *testing.T) {
	spec := onChipSpec(t)
	spec.DedicatedTSV = true
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// With dedicated TSVs there must be no branch between the logic
	// layers and the DRAM stack: every recorded landing link goes to the
	// supply (N2 < 0).
	logicEnd := 0
	for _, l := range m.Layers {
		if l.Die == DieLogic {
			if end := l.Offset + l.Grid.N(); end > logicEnd {
				logicEnd = end
			}
		}
	}
	if logicEnd == 0 {
		t.Fatal("no logic layers")
	}
	for _, l := range m.Links {
		if l.Kind != LinkLanding {
			continue
		}
		if l.N2 >= 0 {
			t.Fatalf("dedicated design has a landing branch into node %d (expected supply ties only)", l.N2)
		}
		if l.N1 < logicEnd {
			t.Fatalf("dedicated landing attaches inside the logic mesh (node %d)", l.N1)
		}
	}
}

func TestOnChipLandingBridgesLogicAndDRAM(t *testing.T) {
	spec := onChipSpec(t)
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	logicTop := m.logicTopLayer()
	if logicTop == nil {
		t.Fatal("no logic top layer")
	}
	bridges := 0
	for _, l := range m.Links {
		if l.Kind == LinkLanding && l.N2 >= 0 && logicTop.Contains(l.N1) {
			bridges++
		}
	}
	if bridges != spec.TSVCount {
		t.Errorf("logic-to-DRAM landing bridges = %d, want %d", bridges, spec.TSVCount)
	}
}

func TestAlignedRemovesDetour(t *testing.T) {
	mis := onChipSpec(t)
	al := onChipSpec(t)
	al.AlignTSV = true
	mm, err := Build(mis)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := Build(al)
	if err != nil {
		t.Fatal(err)
	}
	// Aligned landings have strictly higher conductance (no detour term).
	var gMis, gAl float64
	for _, l := range mm.Links {
		if l.Kind == LinkLanding {
			gMis += l.G
		}
	}
	for _, l := range ma.Links {
		if l.Kind == LinkLanding {
			gAl += l.G
		}
	}
	if gAl <= gMis {
		t.Errorf("aligned landing conductance %.3f S should exceed misaligned %.3f S", gAl, gMis)
	}
}

func TestLinkKindStrings(t *testing.T) {
	for _, k := range []LinkKind{LinkTSV, LinkB2B, LinkLanding, LinkWire, LinkRDL} {
		if k.String() == "link" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if LinkKind(99).String() != "link" {
		t.Error("unknown kind should fall back to 'link'")
	}
}

// The symbolic freeze is timed on its own, inside the stamp interval it
// belongs to: one rmesh.freeze_time observation per build, no longer than
// that build's rmesh.stamp_time.
func TestBuildTimesFreezeInsideStamp(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := BuildTopologyObs(offChipSpec(t), reg); err != nil {
		t.Fatal(err)
	}
	timers := reg.Snapshot().Timers
	freeze, stamp := timers["rmesh.freeze_time"], timers["rmesh.stamp_time"]
	if freeze.Count != 1 || stamp.Count != 1 {
		t.Fatalf("rmesh.freeze_time count %d, rmesh.stamp_time count %d; want one each per build", freeze.Count, stamp.Count)
	}
	if !(freeze.Seconds > 0 && freeze.Seconds <= stamp.Seconds) {
		t.Fatalf("rmesh.freeze_time %gs outside (0, rmesh.stamp_time %gs]", freeze.Seconds, stamp.Seconds)
	}
}

// The build's counting pass sizes the builder from an exact count: on
// designs with a logic die, RDL on every die, F2F bonding and bond wires
// alike, stampCounter counts exactly the stamps the builder kept. A
// counter that missed or invented stamps would let the arrays regrow or
// leave them oversized.
func TestStampCounterIsExact(t *testing.T) {
	rdlAll := offChipSpec(t)
	rdlAll.RDL = pdn.RDLAll
	rdlAll.Bonding = pdn.F2F
	rdlAll.WireBond = true
	for _, spec := range []*pdn.Spec{offChipSpec(t), onChipSpec(t), rdlAll} {
		topo, m, err := buildBoth(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		var c stampCounter
		if err := m.stamp(&c); err != nil {
			t.Fatal(err)
		}
		if c.n != topo.pattern.Stamps() {
			t.Errorf("%s rdl=%v: counted %d stamps, the builder kept %d", spec.Name, spec.RDL, c.n, topo.pattern.Stamps())
		}
	}
}
