// Package pdn specifies a complete 3D DRAM power-delivery design — the
// design and packaging knobs of the paper's Sections 3 and 4 — and computes
// the physical placements (TSV sites, C4 bump arrays, RDL presence, bond
// wire attach points) that the R-Mesh builder turns into a resistor
// network.
//
// One Spec captures: per-layer PDN metal usage, mounting style (stand-alone
// vs. on a logic die), PG TSV count/location/alignment, dedicated via-last
// TSVs, bonding style (F2B vs. F2F+B2B), RDL options, and backside wire
// bonding.
package pdn

import (
	"fmt"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/tech"
	"pdn3d/internal/units"
)

// TSVLocation is the PG TSV placement style (paper §3.3, Table 8's TL).
type TSVLocation uint8

const (
	// CenterTSV groups all PG TSVs in the die center: the lowest-cost
	// option (no routing blockage on the logic die) but the highest IR.
	CenterTSV TSVLocation = iota
	// EdgeTSV places PG TSV columns along the left/right die edges,
	// shortening supply paths at high keep-out cost.
	EdgeTSV
	// DistributedTSV spreads PG TSVs between banks (HMC style).
	DistributedTSV
)

func (l TSVLocation) String() string {
	switch l {
	case CenterTSV:
		return "C"
	case EdgeTSV:
		return "E"
	case DistributedTSV:
		return "D"
	default:
		return fmt.Sprintf("TSVLocation(%d)", uint8(l))
	}
}

// Bonding is the die stacking style (paper §4.2).
type Bonding uint8

const (
	// F2B is conventional face-to-back stacking: every inter-die
	// interface passes through PG TSVs.
	F2B Bonding = iota
	// F2F flips alternate dies so dies (1,2) and (3,4) bond face-to-face
	// with dense via carpets (sharing their PDNs), while pairs connect
	// back-to-back through TSVs.
	F2F
)

func (b Bonding) String() string {
	if b == F2F {
		return "F2F"
	}
	return "F2B"
}

// RDLOption selects redistribution-layer insertion (paper §3.3).
type RDLOption uint8

const (
	// RDLNone uses no redistribution layer.
	RDLNone RDLOption = iota
	// RDLInterface inserts one thick RDL between the supply source
	// (package or logic die) and the bottom DRAM die; the supply lands in
	// the center and the RDL reroutes laterally to the DRAM TSV sites.
	RDLInterface
	// RDLAll adds a backside RDL to every DRAM die.
	RDLAll
)

func (r RDLOption) String() string {
	switch r {
	case RDLNone:
		return "none"
	case RDLInterface:
		return "interface"
	case RDLAll:
		return "all"
	default:
		return fmt.Sprintf("RDLOption(%d)", uint8(r))
	}
}

// Spec is a complete 3D DRAM PDN design.
type Spec struct {
	// Name labels the design in reports.
	Name string

	// NumDRAM is the DRAM die count (4 in all paper benchmarks).
	NumDRAM int
	// DRAM is the (identical) DRAM die floorplan.
	DRAM *floorplan.Floorplan
	// DRAMTech is the DRAM process/packaging technology.
	DRAMTech *tech.Technology
	// Usage maps DRAM PDN layer name to the VDD area fraction, e.g.
	// {"M2": 0.10, "M3": 0.20} for the paper's baseline.
	Usage map[string]float64

	// OnLogic mounts the DRAM stack on a logic die (on-chip) instead of
	// directly on the package (off-chip / stand-alone).
	OnLogic bool
	// Logic is the host logic floorplan (required when OnLogic).
	Logic *floorplan.Floorplan
	// LogicTech is the logic process technology.
	LogicTech *tech.Technology
	// LogicUsage maps logic PDN layer names to VDD usage.
	LogicUsage map[string]float64

	// Bonding selects F2B or F2F+B2B stacking.
	Bonding Bonding
	// TSVStyle is the PG TSV placement style.
	TSVStyle TSVLocation
	// TSVCount is the PG TSV count per inter-die interface.
	TSVCount int
	// AlignTSV snaps on-chip TSV landings to the nearest C4 bump,
	// eliminating the lateral misalignment detour through the logic die
	// (paper §3.2). Ignored off-chip, where the package substrate routes
	// the bumps under the TSVs anyway.
	AlignTSV bool
	// DedicatedTSV adds via-last power TSVs through the logic die that
	// feed the DRAM stack directly from the package, decoupling the two
	// PDNs (paper §4.1). Only meaningful when OnLogic.
	DedicatedTSV bool
	// RDL selects redistribution-layer insertion.
	RDL RDLOption
	// WireBond adds backside bond wires from every DRAM die edge to the
	// package supply (paper §4.1).
	WireBond bool
	// WiresPerDie is the bond wire count per die (split over the left and
	// right edges). Zero selects the default of 8.
	WiresPerDie int

	// FailedTSVs marks PG TSV indices (into TSVSites) as failed opens:
	// the R-Mesh omits the whole via stack at those sites, including the
	// supply landing, modelling manufacturing or wear-out faults for
	// resilience studies. Must leave at least one TSV alive.
	FailedTSVs map[int]bool

	// MeshPitch is the R-Mesh node pitch in mm. Zero selects 0.2.
	MeshPitch float64
}

// DefaultWiresPerDie is used when Spec.WiresPerDie is zero.
const DefaultWiresPerDie = 8

// DefaultMeshPitch is used when Spec.MeshPitch is zero.
const DefaultMeshPitch = 0.2

// EffWiresPerDie returns the effective bond wire count per die.
func (s *Spec) EffWiresPerDie() int {
	if s.WiresPerDie > 0 {
		return s.WiresPerDie
	}
	return DefaultWiresPerDie
}

// EffMeshPitch returns the effective mesh pitch.
func (s *Spec) EffMeshPitch() float64 {
	if s.MeshPitch > 0 {
		return s.MeshPitch
	}
	return DefaultMeshPitch
}

// Validate checks the specification for completeness and consistency.
func (s *Spec) Validate() error {
	if s.NumDRAM <= 0 {
		return fmt.Errorf("pdn %s: NumDRAM %d must be positive", s.Name, s.NumDRAM)
	}
	if s.Bonding == F2F && s.NumDRAM%2 != 0 {
		return fmt.Errorf("pdn %s: F2F bonding needs an even die count, got %d", s.Name, s.NumDRAM)
	}
	if s.DRAM == nil || s.DRAMTech == nil {
		return fmt.Errorf("pdn %s: DRAM floorplan and technology required", s.Name)
	}
	if err := s.DRAMTech.Validate(); err != nil {
		return err
	}
	if len(s.Usage) == 0 {
		return fmt.Errorf("pdn %s: no DRAM PDN layer usage", s.Name)
	}
	for name, u := range s.Usage {
		l, err := s.DRAMTech.Layer(name)
		if err != nil {
			return fmt.Errorf("pdn %s: %v", s.Name, err)
		}
		if u <= 0 || u > l.MaxUsage+1e-9 {
			return fmt.Errorf("pdn %s: layer %s usage %g out of (0, %g]", s.Name, name, u, l.MaxUsage)
		}
	}
	if s.OnLogic {
		if s.Logic == nil || s.LogicTech == nil {
			return fmt.Errorf("pdn %s: on-chip design needs logic floorplan and technology", s.Name)
		}
		if err := s.LogicTech.Validate(); err != nil {
			return err
		}
		if len(s.LogicUsage) == 0 {
			return fmt.Errorf("pdn %s: no logic PDN layer usage", s.Name)
		}
		for name, u := range s.LogicUsage {
			l, err := s.LogicTech.Layer(name)
			if err != nil {
				return fmt.Errorf("pdn %s: %v", s.Name, err)
			}
			if u <= 0 || u > l.MaxUsage+1e-9 {
				return fmt.Errorf("pdn %s: logic layer %s usage %g out of (0, %g]", s.Name, name, u, l.MaxUsage)
			}
		}
		if !units.SameValue(s.DRAMTech.VDD, s.LogicTech.VDD) {
			return fmt.Errorf("pdn %s: coupled logic and DRAM PDNs need equal VDD (%g vs %g)",
				s.Name, s.LogicTech.VDD, s.DRAMTech.VDD)
		}
		logicArea := s.Logic.Outline
		dramArea := s.DRAM.Outline
		if dramArea.W() > logicArea.W()+1e-9 || dramArea.H() > logicArea.H()+1e-9 {
			return fmt.Errorf("pdn %s: DRAM die %v larger than host logic die %v", s.Name, dramArea, logicArea)
		}
	} else if s.DedicatedTSV {
		return fmt.Errorf("pdn %s: dedicated TSVs only apply to on-chip designs", s.Name)
	}
	if s.TSVCount < 1 {
		return fmt.Errorf("pdn %s: TSV count %d must be >= 1", s.Name, s.TSVCount)
	}
	if s.TSVStyle > DistributedTSV {
		return fmt.Errorf("pdn %s: unknown TSV style %d", s.Name, s.TSVStyle)
	}
	if s.RDL > RDLAll {
		return fmt.Errorf("pdn %s: unknown RDL option %d", s.Name, s.RDL)
	}
	if s.EffMeshPitch() <= 0 || s.EffMeshPitch() > s.DRAM.Outline.W()/4 {
		return fmt.Errorf("pdn %s: mesh pitch %g unreasonable for die width %g",
			s.Name, s.EffMeshPitch(), s.DRAM.Outline.W())
	}
	if len(s.FailedTSVs) > 0 {
		alive := s.TSVCount
		for idx := range s.FailedTSVs {
			if idx < 0 || idx >= s.TSVCount {
				return fmt.Errorf("pdn %s: failed TSV index %d out of range [0,%d)", s.Name, idx, s.TSVCount)
			}
			alive--
		}
		if alive < 1 {
			return fmt.Errorf("pdn %s: all %d TSVs marked failed", s.Name, s.TSVCount)
		}
	}
	return nil
}

// Clone returns a deep-enough copy for mutation of the option fields
// (floorplans and technologies stay shared — they are immutable by
// convention).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Usage = make(map[string]float64, len(s.Usage))
	for k, v := range s.Usage {
		c.Usage[k] = v
	}
	if s.LogicUsage != nil {
		c.LogicUsage = make(map[string]float64, len(s.LogicUsage))
		for k, v := range s.LogicUsage {
			c.LogicUsage[k] = v
		}
	}
	if s.FailedTSVs != nil {
		c.FailedTSVs = make(map[int]bool, len(s.FailedTSVs))
		for k, v := range s.FailedTSVs {
			c.FailedTSVs[k] = v
		}
	}
	return &c
}
