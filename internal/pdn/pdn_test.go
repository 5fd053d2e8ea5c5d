package pdn

import (
	"math"
	"strings"
	"testing"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/geom"
	"pdn3d/internal/tech"
)

func testSpec(t *testing.T) *Spec {
	t.Helper()
	fp, err := floorplan.DDR3Die(floorplan.DefaultDDR3())
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		Name:     "test",
		NumDRAM:  4,
		DRAM:     fp,
		DRAMTech: tech.DRAM20(1.5),
		Usage:    map[string]float64{"M2": 0.10, "M3": 0.20},
		Bonding:  F2B,
		TSVStyle: EdgeTSV,
		TSVCount: 33,
	}
}

func withLogic(t *testing.T, s *Spec) *Spec {
	t.Helper()
	lf, err := floorplan.T2Die(floorplan.DefaultT2())
	if err != nil {
		t.Fatal(err)
	}
	s.OnLogic = true
	s.Logic = lf
	s.LogicTech = tech.Logic28(1.5)
	s.LogicUsage = map[string]float64{"M1": 0.10, "M6": 0.30}
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec(t).Validate(); err != nil {
		t.Fatalf("valid off-chip spec rejected: %v", err)
	}
	if err := withLogic(t, testSpec(t)).Validate(); err != nil {
		t.Fatalf("valid on-chip spec rejected: %v", err)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero dies", func(s *Spec) { s.NumDRAM = 0 }, "NumDRAM"},
		{"odd F2F", func(s *Spec) { s.NumDRAM = 3; s.Bonding = F2F }, "even die count"},
		{"no usage", func(s *Spec) { s.Usage = nil }, "usage"},
		{"unknown layer", func(s *Spec) { s.Usage = map[string]float64{"M9": 0.1} }, "M9"},
		{"usage over cap", func(s *Spec) { s.Usage["M2"] = 0.9 }, "out of"},
		{"zero TSVs", func(s *Spec) { s.TSVCount = 0 }, "TSV count"},
		{"dedicated off-chip", func(s *Spec) { s.DedicatedTSV = true }, "dedicated"},
		{"huge pitch", func(s *Spec) { s.MeshPitch = 5 }, "mesh pitch"},
	}
	for _, c := range cases {
		s := testSpec(t)
		c.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestOnChipValidateRejects(t *testing.T) {
	s := withLogic(t, testSpec(t))
	s.LogicTech = tech.Logic28(1.0) // VDD mismatch with 1.5 V DRAM
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "VDD") {
		t.Errorf("VDD mismatch: err = %v", err)
	}
	s2 := withLogic(t, testSpec(t))
	s2.LogicUsage = nil
	if err := s2.Validate(); err == nil {
		t.Error("missing logic usage: want error")
	}
}

func TestTSVSitesCountAndBounds(t *testing.T) {
	for _, style := range []TSVLocation{EdgeTSV, CenterTSV, DistributedTSV} {
		for _, count := range []int{1, 15, 33, 160, 480} {
			s := testSpec(t)
			s.TSVStyle = style
			s.TSVCount = count
			sites := s.TSVSites()
			if len(sites) != count {
				t.Errorf("style %v count %d: got %d sites", style, count, len(sites))
			}
			for _, p := range sites {
				if !s.DRAM.Outline.ContainsClosed(p) {
					t.Errorf("style %v: site %v outside die %v", style, p, s.DRAM.Outline)
				}
			}
		}
	}
}

func TestEdgeSitesHugTheEdges(t *testing.T) {
	s := testSpec(t)
	s.TSVStyle = EdgeTSV
	s.TSVCount = 40
	mid := s.DRAM.Outline.Center().X
	for _, p := range s.TSVSites() {
		dEdge := math.Min(p.X-s.DRAM.Outline.X0, s.DRAM.Outline.X1-p.X)
		if dEdge > 1.0 {
			t.Errorf("edge site %v is %.2f mm from the nearest edge", p, dEdge)
		}
		if math.Abs(p.X-mid) < 2.0 {
			t.Errorf("edge site %v too close to die center", p)
		}
	}
}

func TestCenterSitesCluster(t *testing.T) {
	s := testSpec(t)
	s.TSVStyle = CenterTSV
	s.TSVCount = 64
	c := s.DRAM.Outline.Center()
	for _, p := range s.TSVSites() {
		if p.Dist(c) > 1.0 {
			t.Errorf("center site %v is %.2f mm from center", p, p.Dist(c))
		}
	}
}

func TestDistributedSitesSpread(t *testing.T) {
	s := testSpec(t)
	s.TSVStyle = DistributedTSV
	s.TSVCount = 160
	// Quadrant occupancy: all four quadrants must hold sites.
	c := s.DRAM.Outline.Center()
	var q [4]int
	for _, p := range s.TSVSites() {
		idx := 0
		if p.X > c.X {
			idx |= 1
		}
		if p.Y > c.Y {
			idx |= 2
		}
		q[idx]++
	}
	for i, n := range q {
		if n == 0 {
			t.Errorf("quadrant %d has no distributed TSVs", i)
		}
	}
}

func TestTSVSitesDistinct(t *testing.T) {
	for _, style := range []TSVLocation{EdgeTSV, CenterTSV, DistributedTSV} {
		s := testSpec(t)
		s.TSVStyle = style
		s.TSVCount = 100
		seen := map[geom.Point]bool{}
		for _, p := range s.TSVSites() {
			if seen[p] {
				t.Errorf("style %v: duplicate site %v", style, p)
			}
			seen[p] = true
		}
	}
}

func TestC4SitesCoverBottomDie(t *testing.T) {
	s := testSpec(t)
	c4 := s.C4Sites()
	if len(c4) < 100 {
		t.Fatalf("only %d C4 bumps for a 6.8x6.7 die", len(c4))
	}
	on := withLogic(t, testSpec(t))
	c4on := on.C4Sites()
	if len(c4on) < 100 {
		t.Errorf("only %d C4 bumps for a 9.0x8.0 logic die", len(c4on))
	}
	for _, p := range c4on {
		if !on.Logic.Outline.ContainsClosed(p) {
			t.Errorf("C4 %v outside logic die", p)
		}
	}
}

func TestLandingOffChipIsAligned(t *testing.T) {
	s := testSpec(t)
	for _, l := range s.LandingSites() {
		if l.Misalign != 0 {
			t.Errorf("off-chip landing %v has misalignment %g, want 0 (substrate routes)", l.Pos, l.Misalign)
		}
	}
}

func TestLandingOnChipMisalignment(t *testing.T) {
	mis := withLogic(t, testSpec(t))
	var maxMis float64
	for _, l := range mis.LandingSites() {
		if l.Misalign < 0 {
			t.Fatalf("negative misalignment %g", l.Misalign)
		}
		if l.Misalign > maxMis {
			maxMis = l.Misalign
		}
	}
	if maxMis == 0 {
		t.Error("unaligned on-chip design should show some misalignment")
	}
	if maxMis > mis.LogicTech.C4.Pitch {
		t.Errorf("misalignment %g exceeds C4 pitch %g", maxMis, mis.LogicTech.C4.Pitch)
	}

	al := withLogic(t, testSpec(t))
	al.AlignTSV = true
	for _, l := range al.LandingSites() {
		if l.Misalign != 0 {
			t.Errorf("aligned landing still misaligned by %g", l.Misalign)
		}
	}
}

func TestLandingCenterWithInterfaceRDL(t *testing.T) {
	s := testSpec(t)
	s.TSVStyle = EdgeTSV
	s.RDL = RDLInterface
	c := s.DRAM.Outline.Center()
	sites := s.LandingSites()
	if len(sites) != s.TSVCount {
		t.Fatalf("landing sites = %d, want %d", len(sites), s.TSVCount)
	}
	for _, l := range sites {
		if l.Pos.Dist(c) > 1.0 {
			t.Errorf("RDL-interface landing %v far from center", l.Pos)
		}
	}
}

func TestWireSites(t *testing.T) {
	s := testSpec(t)
	sites := s.WireSites()
	if len(sites) != DefaultWiresPerDie {
		t.Fatalf("wires = %d, want default %d", len(sites), DefaultWiresPerDie)
	}
	for _, p := range sites {
		dEdge := math.Min(p.X-s.DRAM.Outline.X0, s.DRAM.Outline.X1-p.X)
		if dEdge > 0.2 {
			t.Errorf("wire pad %v not at die edge", p)
		}
	}
	s.WiresPerDie = 5
	if got := len(s.WireSites()); got != 5 {
		t.Errorf("wires = %d, want 5", got)
	}
}

func TestWireLengthGrowsUpTheStack(t *testing.T) {
	s := testSpec(t)
	if !(s.WireLength(0) < s.WireLength(3)) {
		t.Error("upper-die wires should be longer")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := withLogic(t, testSpec(t))
	c := s.Clone()
	c.Usage["M2"] = 0.2
	c.LogicUsage["M1"] = 0.25
	c.TSVCount = 99
	if s.Usage["M2"] != 0.10 || s.LogicUsage["M1"] != 0.10 || s.TSVCount != 33 {
		t.Error("Clone leaked mutations into the original")
	}
}

func TestStringers(t *testing.T) {
	if EdgeTSV.String() != "E" || CenterTSV.String() != "C" || DistributedTSV.String() != "D" {
		t.Error("TSVLocation strings")
	}
	if F2B.String() != "F2B" || F2F.String() != "F2F" {
		t.Error("Bonding strings")
	}
	if RDLNone.String() != "none" || RDLInterface.String() != "interface" || RDLAll.String() != "all" {
		t.Error("RDLOption strings")
	}
}
