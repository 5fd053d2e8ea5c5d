// Package powermap turns memory states into spatial power maps.
//
// The paper uses detailed DDR3 power maps measured by Samsung/Micron and
// scaled to 20nm-class technology; those are proprietary, so this package
// anchors a table-driven model on the aggregate numbers the paper itself
// publishes in Table 5 (active-die and total stack power versus I/O
// activity for the stacked DDR3) and distributes the power spatially over
// the floorplan blocks: active bank arrays and their row decoders take the
// bank share, the column path and center peripheral strip take the I/O
// share, and idle dies burn standby power in the periphery.
package powermap

import (
	"fmt"
	"sort"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/geom"
)

// Load is one spatial power load: P milliwatts drawn uniformly over Rect.
type Load struct {
	Rect geom.Rect
	P    float64
}

// TotalPower sums the power of a load set.
func TotalPower(loads []Load) float64 {
	var s float64
	for _, l := range loads {
		s += l.P
	}
	return s
}

// Anchor is one measured operating point of a DRAM die running the
// two-bank interleaving read at the given I/O activity.
type Anchor struct {
	// IO is the I/O activity fraction in (0, 1].
	IO float64
	// ActiveDie is the active die's power in mW at this activity.
	ActiveDie float64
	// IdleDie is an idle die's standby power in mW at this activity.
	IdleDie float64
}

// DRAMModel computes per-die, per-block power for a DRAM die type.
//
// The active-die power splits into an I/O-insensitive bank component
// (activation/restore energy of the open banks, BankPower per bank) and an
// I/O-dependent transport component (column path, drivers, pads) carried by
// the anchors: at I/O activity io with n active banks,
//
//	P(n, io) = idle(io) + n·BankPower + V(io),
//	V(io)    = (active(io) − idle(io)) − RefBanks·BankPower.
//
// This decomposition is what lets the model reproduce the paper's §5.1
// observation that a 44.7 % die-power reduction (25 % I/O activity) only
// buys a ~24 % IR-drop reduction: the bank hotspot barely moves.
type DRAMModel struct {
	// Anchors hold measured (IO, power) points for a die with
	// RefBanks active banks; lookups interpolate linearly between them
	// and clamp outside the covered range. Must be sorted by IO.
	Anchors []Anchor
	// RefBanks is the active-bank count the anchors were measured at
	// (2 for the paper's interleaving read).
	RefBanks int
	// BankPower is the I/O-insensitive per-active-bank power in mW.
	BankPower float64
	// ArrayFrac splits each bank's power between cell array and its row
	// decoder (ArrayFrac to the array).
	ArrayFrac float64
	// PeriphFrac splits the I/O power between the center peripheral
	// strip (PeriphFrac) and the column-path strips.
	PeriphFrac float64
	// Scale multiplies all powers; 1.0 for stacked DDR3, below 1 for the
	// low-power Wide I/O, above 1 for the high-bandwidth HMC.
	Scale float64
}

// StackedDDR3Power returns the Table 5-anchored model for the stacked DDR3
// die (anchors at 25/50/100 % I/O activity, two-bank interleaving read).
func StackedDDR3Power() *DRAMModel {
	return &DRAMModel{
		Anchors: []Anchor{
			{IO: 0.25, ActiveDie: 126.0, IdleDie: 27.3},
			{IO: 0.50, ActiveDie: 175.5, IdleDie: 27.0},
			{IO: 1.00, ActiveDie: 220.5, IdleDie: 30.0},
		},
		RefBanks:   2,
		BankPower:  49.0,
		ArrayFrac:  0.90,
		PeriphFrac: 0.90,
		Scale:      1.0,
	}
}

// WideIOPower scales the DDR3 model to the Wide I/O die: a mobile part at
// 200 Mbps/pin whose 3D-IC benefit is low power (Table 1). The scale is
// calibrated so the Table 9 Wide I/O baseline lands at the paper's 13.6 mV.
func WideIOPower() *DRAMModel {
	m := StackedDDR3Power()
	m.Scale = 0.38
	return m
}

// HMCPower scales the DDR3 model to the HMC DRAM die: 2500 Mbps/pin over
// 512 data pins makes it the high-power benchmark (Table 1; the paper's
// Table 9 places even the optimized HMC well above the other designs). The
// scale is calibrated so the Table 9 HMC baseline lands at the paper's
// 47.9 mV.
func HMCPower() *DRAMModel {
	m := StackedDDR3Power()
	m.Scale = 2.05
	return m
}

// Validate checks model consistency.
func (m *DRAMModel) Validate() error {
	if len(m.Anchors) == 0 {
		return fmt.Errorf("powermap: no anchors")
	}
	if !sort.SliceIsSorted(m.Anchors, func(i, j int) bool { return m.Anchors[i].IO < m.Anchors[j].IO }) {
		return fmt.Errorf("powermap: anchors not sorted by IO")
	}
	for _, a := range m.Anchors {
		if a.IO <= 0 || a.IO > 1 {
			return fmt.Errorf("powermap: anchor IO %g out of (0,1]", a.IO)
		}
		if a.ActiveDie <= a.IdleDie {
			return fmt.Errorf("powermap: anchor at IO %g: active %g <= idle %g", a.IO, a.ActiveDie, a.IdleDie)
		}
	}
	if m.RefBanks <= 0 {
		return fmt.Errorf("powermap: RefBanks %d must be positive", m.RefBanks)
	}
	if m.ArrayFrac < 0 || m.ArrayFrac > 1 || m.PeriphFrac < 0 || m.PeriphFrac > 1 {
		return fmt.Errorf("powermap: share fractions out of [0,1]")
	}
	if m.BankPower <= 0 {
		return fmt.Errorf("powermap: bank power %g must be positive", m.BankPower)
	}
	// V(io) must stay non-negative over the covered activity range.
	for _, a := range m.Anchors {
		if a.ActiveDie-a.IdleDie < m.BankPower*float64(m.RefBanks) {
			return fmt.Errorf("powermap: bank power %g x %d exceeds increment %g at IO %g",
				m.BankPower, m.RefBanks, a.ActiveDie-a.IdleDie, a.IO)
		}
	}
	if m.Scale <= 0 {
		return fmt.Errorf("powermap: scale %g must be positive", m.Scale)
	}
	return nil
}

// interp returns the (active, idle) powers at I/O activity io by piecewise
// linear interpolation over the anchors, clamped at the ends.
func (m *DRAMModel) interp(io float64) (active, idle float64) {
	a := m.Anchors
	if io <= a[0].IO {
		return a[0].ActiveDie, a[0].IdleDie
	}
	last := a[len(a)-1]
	if io >= last.IO {
		return last.ActiveDie, last.IdleDie
	}
	for i := 1; i < len(a); i++ {
		if io <= a[i].IO {
			t := (io - a[i-1].IO) / (a[i].IO - a[i-1].IO)
			return a[i-1].ActiveDie + t*(a[i].ActiveDie-a[i-1].ActiveDie),
				a[i-1].IdleDie + t*(a[i].IdleDie-a[i-1].IdleDie)
		}
	}
	return last.ActiveDie, last.IdleDie
}

// DiePower returns the total power of one die with nActive active banks at
// the given I/O activity: standby + n·BankPower + V(io). The I/O component
// is bank-count independent (a die's I/O runs at the stated activity
// regardless of how many banks feed it).
func (m *DRAMModel) DiePower(nActive int, io float64) float64 {
	act, idle := m.interp(io)
	if nActive <= 0 {
		return m.Scale * idle
	}
	v := (act - idle) - m.BankPower*float64(m.RefBanks)
	if v < 0 {
		v = 0
	}
	return m.Scale * (idle + m.BankPower*float64(nActive) + v)
}

// Weights returns the two I/O-dependent weights of a die's load patterns
// at activity io, both in mW: idle, the standby power every die draws
// (StandbyLoads), and ioP, the I/O power an active die adds on top of its
// banks' fixed load (IOLoads), V(io) scaled and clamped at zero.
func (m *DRAMModel) Weights(io float64) (idle, ioP float64) {
	act, idle := m.interp(io)
	act *= m.Scale
	idle *= m.Scale
	ioP = (act - idle) - m.BankPower*float64(m.RefBanks)*m.Scale
	if ioP < 0 {
		ioP = 0
	}
	return idle, ioP
}

// Loads distributes one die's power over its floorplan blocks for the
// given set of active banks and I/O activity. It composes the die's three
// load patterns in a fixed order: the standby pattern at idle(io), then
// each active bank's fixed load in the order given, then the I/O pattern
// at ioP(io) (Weights). An idle die draws the standby pattern alone.
func (m *DRAMModel) Loads(fp *floorplan.Floorplan, active []int, io float64) ([]Load, error) {
	for _, b := range active {
		if err := checkBank(fp, b); err != nil {
			return nil, err
		}
	}
	blocks, err := dieBlocksOf(fp)
	if err != nil {
		return nil, err
	}
	idle, ioP := m.Weights(io)
	loads := blocks.standby(nil, idle)
	if len(active) == 0 {
		return loads, nil
	}
	for _, b := range active {
		loads = m.bank(loads, fp, b)
	}
	return blocks.io(loads, m.PeriphFrac, ioP), nil
}

// StandbyLoads returns a die's standby pattern carrying w mW: 50 % on the
// peripheral strip, 25 % on the column paths and 25 % spread uniformly
// over the bank arrays (retention/refresh background).
func (m *DRAMModel) StandbyLoads(fp *floorplan.Floorplan, w float64) ([]Load, error) {
	blocks, err := dieBlocksOf(fp)
	if err != nil {
		return nil, err
	}
	return blocks.standby(nil, w), nil
}

// IOLoads returns an active die's I/O pattern carrying w mW: PeriphFrac on
// the peripheral strip, the rest on the column paths.
func (m *DRAMModel) IOLoads(fp *floorplan.Floorplan, w float64) ([]Load, error) {
	blocks, err := dieBlocksOf(fp)
	if err != nil {
		return nil, err
	}
	return blocks.io(nil, m.PeriphFrac, w), nil
}

// BankLoads returns active bank b's fixed load: BankPower, scaled, split
// ArrayFrac to its cell array and the rest to its row decoder.
func (m *DRAMModel) BankLoads(fp *floorplan.Floorplan, b int) ([]Load, error) {
	if err := checkBank(fp, b); err != nil {
		return nil, err
	}
	return m.bank(nil, fp, b), nil
}

func checkBank(fp *floorplan.Floorplan, b int) error {
	if b < 0 || b >= fp.NumBanks {
		return fmt.Errorf("powermap: active bank %d out of range for %s (%d banks)", b, fp.Name, fp.NumBanks)
	}
	return nil
}

// dieBlocks are the blocks a die's standby and I/O patterns cover.
type dieBlocks struct {
	periph, colpath, arrays []floorplan.Block
}

func dieBlocksOf(fp *floorplan.Floorplan) (dieBlocks, error) {
	periph := fp.KindBlocks(floorplan.Peripheral)
	colpath := fp.KindBlocks(floorplan.ColumnPath)
	if len(colpath) == 0 {
		// HMC-style dies fold the column circuitry into the peripheral
		// strip.
		colpath = periph
	}
	if len(periph) == 0 {
		return dieBlocks{}, fmt.Errorf("powermap: floorplan %s has no peripheral strip", fp.Name)
	}
	return dieBlocks{periph: periph, colpath: colpath, arrays: fp.KindBlocks(floorplan.BankArray)}, nil
}

func (d dieBlocks) standby(loads []Load, w float64) []Load {
	loads = spread(loads, d.periph, w*0.50)
	loads = spread(loads, d.colpath, w*0.25)
	return spread(loads, d.arrays, w*0.25)
}

func (d dieBlocks) io(loads []Load, periphFrac, w float64) []Load {
	loads = spread(loads, d.periph, w*periphFrac)
	return spread(loads, d.colpath, w*(1-periphFrac))
}

func (m *DRAMModel) bank(loads []Load, fp *floorplan.Floorplan, b int) []Load {
	perBank := m.BankPower * m.Scale
	var arr, dec []floorplan.Block
	for _, bl := range fp.BankBlocks(b) {
		switch bl.Kind {
		case floorplan.BankArray:
			arr = append(arr, bl)
		case floorplan.RowDecoder:
			dec = append(dec, bl)
		}
	}
	if len(dec) == 0 {
		// Dies without per-bank decoders put it all in the array.
		return spread(loads, arr, perBank)
	}
	loads = spread(loads, arr, perBank*m.ArrayFrac)
	return spread(loads, dec, perBank*(1-m.ArrayFrac))
}

// spread appends total mW drawn over blocks, each block's share in
// proportion to its area.
func spread(loads []Load, blocks []floorplan.Block, total float64) []Load {
	if total <= 0 || len(blocks) == 0 {
		return loads
	}
	var area float64
	for _, b := range blocks {
		area += b.Rect.Area()
	}
	for _, b := range blocks {
		loads = append(loads, Load{Rect: b.Rect, P: total * b.Rect.Area() / area})
	}
	return loads
}
