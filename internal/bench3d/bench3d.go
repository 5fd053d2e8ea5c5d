// Package bench3d defines the four 3D DRAM benchmarks of the paper's
// Table 1 — off-chip stacked DDR3, on-chip stacked DDR3, Wide I/O, and
// HMC — as ready-to-analyze designs: baseline pdn.Spec (the Table 9
// "Baseline" rows), power models, host logic die, default memory state,
// and per-benchmark design-space constraints for the co-optimizer.
//
// The package also centralizes the calibration: all absolute electrical
// constants are chosen so the off-chip stacked-DDR3 baseline reproduces the
// paper's 30.03 mV maximum IR drop and the stand-alone T2 die its 50.05 mV
// supply noise; every other number in the reproduction follows from the
// shared physics.
package bench3d

import (
	"fmt"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/tech"
)

// Benchmark is one fully-specified 3D DRAM design point.
type Benchmark struct {
	// Name is the benchmark identifier: "ddr3-off", "ddr3-on", "wideio",
	// "hmc".
	Name string
	// Spec is the baseline design (Table 9 "Baseline" row).
	Spec *pdn.Spec
	// DRAMPower is the DRAM die power model.
	DRAMPower *powermap.DRAMModel
	// LogicPower is the host logic power model (nil off-chip).
	LogicPower *powermap.LogicModel
	// DefaultCounts is the default memory state (0-0-0-2: zero-bubble
	// interleaving read on the top die, §2.2).
	DefaultCounts []int
	// DefaultIO is the default per-die I/O activity.
	DefaultIO float64
	// Space is the co-optimization design space (Table 8 input ranges
	// with the per-benchmark restrictions of §6.1).
	Space Space
	// Channels is the independent memory channel count (Table 1: one for
	// stacked DDR3, four for Wide I/O, sixteen for HMC).
	Channels int
	// ChannelOf maps (die, bank) to a channel; nil means bank%Channels.
	ChannelOf func(die, bank int) int
}

// LogicFor returns the logic die's power model for spec, a design of this
// benchmark: the benchmark's model exactly when spec mounts the stack on
// the logic die, nil otherwise.
func (b *Benchmark) LogicFor(spec *pdn.Spec) *powermap.LogicModel {
	if !spec.OnLogic {
		return nil
	}
	return b.LogicPower
}

// Space bounds the design space for one benchmark.
type Space struct {
	// M2Range and M3Range bound the layer VDD usages.
	M2Range, M3Range [2]float64
	// TSVRange bounds the PG TSV count; equal endpoints pin it (Wide I/O
	// fixes 160 by specification).
	TSVRange [2]int
	// Locations lists the allowed TSV placement styles.
	Locations []pdn.TSVLocation
	// EdgeNeedsRDL forces RDL with edge TSVs (Wide I/O: JEDEC requires
	// center PG pumps, so edge TSVs only work with an interface RDL).
	EdgeNeedsRDL bool
}

// T2PowerMW is the host logic die's calibrated total power: it produces the
// paper's 50.05 mV stand-alone T2 supply noise with the baseline logic PDN.
const T2PowerMW = t2PowerMW

// StackedDDR3Off returns the off-chip (stand-alone) stacked DDR3 benchmark.
func StackedDDR3Off() (*Benchmark, error) {
	fp, err := floorplan.DDR3Die(floorplan.DefaultDDR3())
	if err != nil {
		return nil, err
	}
	spec := &pdn.Spec{
		Name:     "ddr3-off",
		NumDRAM:  4,
		DRAM:     fp,
		DRAMTech: tech.DRAM20(1.5),
		Usage:    map[string]float64{"M2": 0.10, "M3": 0.20},
		Bonding:  pdn.F2B,
		TSVStyle: pdn.EdgeTSV,
		TSVCount: 33,
	}
	return &Benchmark{
		Name:          "ddr3-off",
		Spec:          spec,
		DRAMPower:     powermap.StackedDDR3Power(),
		DefaultCounts: []int{0, 0, 0, 2},
		DefaultIO:     1.0,
		Space:         ddr3Space(),
		Channels:      1,
	}, nil
}

// StackedDDR3On returns the on-chip stacked DDR3 benchmark: the same stack
// mounted on the T2 host. The Table 9 baseline uses dedicated TSVs.
func StackedDDR3On() (*Benchmark, error) {
	b, err := StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	lf, err := floorplan.T2Die(floorplan.DefaultT2())
	if err != nil {
		return nil, err
	}
	spec := b.Spec
	spec.Name = "ddr3-on"
	spec.OnLogic = true
	spec.Logic = lf
	spec.LogicTech = tech.Logic28(1.5)
	spec.LogicUsage = map[string]float64{"M1": 0.10, "M6": 0.30}
	spec.DedicatedTSV = true
	return &Benchmark{
		Name:          "ddr3-on",
		Spec:          spec,
		DRAMPower:     b.DRAMPower,
		LogicPower:    powermap.T2Power(T2PowerMW),
		DefaultCounts: []int{0, 0, 0, 2},
		DefaultIO:     1.0,
		Space:         ddr3Space(),
		Channels:      1,
	}, nil
}

// WideIO returns the Wide I/O benchmark: a 1.2 V mobile stack mounted on
// the host processor with the JEDEC center bump field. Baseline (Table 9):
// edge TSVs with the mandatory interface RDL and dedicated TSVs.
func WideIO() (*Benchmark, error) {
	fp, err := floorplan.WideIODie(floorplan.DefaultWideIO())
	if err != nil {
		return nil, err
	}
	lf, err := floorplan.T2Die(floorplan.DefaultT2())
	if err != nil {
		return nil, err
	}
	spec := &pdn.Spec{
		Name:         "wideio",
		NumDRAM:      4,
		DRAM:         fp,
		DRAMTech:     tech.DRAM20(1.2),
		Usage:        map[string]float64{"M2": 0.10, "M3": 0.20},
		OnLogic:      true,
		Logic:        lf,
		LogicTech:    tech.Logic28(1.2),
		LogicUsage:   map[string]float64{"M1": 0.10, "M6": 0.30},
		Bonding:      pdn.F2B,
		TSVStyle:     pdn.EdgeTSV,
		TSVCount:     160,
		RDL:          pdn.RDLInterface,
		DedicatedTSV: true,
	}
	return &Benchmark{
		Name:          "wideio",
		Spec:          spec,
		DRAMPower:     powermap.WideIOPower(),
		LogicPower:    powermap.T2Power(T2PowerMW * 0.64), // 1.2 V host burns proportionally less
		DefaultCounts: []int{0, 0, 0, 2},
		DefaultIO:     1.0,
		Space: Space{
			M2Range:      [2]float64{0.10, 0.20},
			M3Range:      [2]float64{0.10, 0.40},
			TSVRange:     [2]int{160, 160}, // fixed by specification (§6.1)
			Locations:    []pdn.TSVLocation{pdn.CenterTSV, pdn.EdgeTSV},
			EdgeNeedsRDL: true,
		},
		Channels:  4,
		ChannelOf: func(die, bank int) int { return bank / 4 }, // quadrant channels
	}, nil
}

// HMC returns the hybrid memory cube benchmark: a high-power 1.2 V stack on
// its own controller die, communicating through an interposer. Distributed
// TSVs are available between the banks (§6.1).
func HMC() (*Benchmark, error) {
	fp, err := floorplan.HMCDie(floorplan.DefaultHMC())
	if err != nil {
		return nil, err
	}
	lf, err := floorplan.HMCLogicDie(floorplan.DefaultHMCLogic())
	if err != nil {
		return nil, err
	}
	spec := &pdn.Spec{
		Name:         "hmc",
		NumDRAM:      4,
		DRAM:         fp,
		DRAMTech:     tech.DRAM20(1.2),
		Usage:        map[string]float64{"M2": 0.10, "M3": 0.20},
		OnLogic:      true,
		Logic:        lf,
		LogicTech:    tech.Logic28(1.2),
		LogicUsage:   map[string]float64{"M1": 0.10, "M6": 0.30},
		Bonding:      pdn.F2B,
		TSVStyle:     pdn.EdgeTSV,
		TSVCount:     384,
		DedicatedTSV: true,
	}
	return &Benchmark{
		Name:          "hmc",
		Spec:          spec,
		DRAMPower:     powermap.HMCPower(),
		LogicPower:    powermap.HMCLogicPower(hmcLogicPowerMW),
		DefaultCounts: []int{0, 0, 0, 2},
		DefaultIO:     1.0,
		Space: Space{
			M2Range:   [2]float64{0.10, 0.20},
			M3Range:   [2]float64{0.10, 0.40},
			TSVRange:  [2]int{160, 480}, // >= 160 for supply current (§6.1)
			Locations: []pdn.TSVLocation{pdn.CenterTSV, pdn.EdgeTSV, pdn.DistributedTSV},
		},
		Channels:  16,
		ChannelOf: func(die, bank int) int { return bank / 2 }, // vault channels
	}, nil
}

func ddr3Space() Space {
	return Space{
		M2Range:   [2]float64{0.10, 0.20},
		M3Range:   [2]float64{0.10, 0.40},
		TSVRange:  [2]int{15, 480},
		Locations: []pdn.TSVLocation{pdn.CenterTSV, pdn.EdgeTSV},
	}
}

// All returns all four benchmarks in the paper's Table 9 order.
func All() ([]*Benchmark, error) {
	offB, err := StackedDDR3Off()
	if err != nil {
		return nil, err
	}
	onB, err := StackedDDR3On()
	if err != nil {
		return nil, err
	}
	w, err := WideIO()
	if err != nil {
		return nil, err
	}
	h, err := HMC()
	if err != nil {
		return nil, err
	}
	return []*Benchmark{offB, onB, w, h}, nil
}

// ByName returns the named benchmark.
func ByName(name string) (*Benchmark, error) {
	switch name {
	case "ddr3-off":
		return StackedDDR3Off()
	case "ddr3-on":
		return StackedDDR3On()
	case "wideio":
		return WideIO()
	case "hmc":
		return HMC()
	default:
		return nil, fmt.Errorf("bench3d: unknown benchmark %q (want ddr3-off, ddr3-on, wideio, hmc)", name)
	}
}
