// Package floorplan generates the block-level die floorplans the platform
// analyzes: DDR3, Wide I/O and HMC DRAM dies built from bank arrays,
// row/column decoders and peripheral/IO strips, plus the OpenSPARC-T2-like
// host logic die. The floorplans drive both the power-map rasterization and
// the PDN layout generation (TSV regions, pad locations).
//
// Layouts are deliberately symmetric about the die's vertical center line:
// the paper's F2F bonding flow relies on DRAM PDN symmetry so that a
// mirrored die mates with an unmirrored one without re-design (§4.2).
package floorplan

import (
	"fmt"

	"pdn3d/internal/geom"
)

// BlockKind classifies a floorplan block for power assignment and legality
// checks.
type BlockKind uint8

const (
	// BankArray is a DRAM bank's cell array.
	BankArray BlockKind = iota
	// RowDecoder is the row-decoder strip serving one bank.
	RowDecoder
	// ColumnPath is the column decoder + sense-amp datapath strip.
	ColumnPath
	// Peripheral is the center control/IO/pad strip of a DRAM die.
	Peripheral
	// TSVRegion is silicon reserved for TSVs (center or distributed styles).
	TSVRegion
	// Core is a processor core on the logic die.
	Core
	// Cache is an L2 cache bank on the logic die.
	Cache
	// Uncore is crossbar/SoC/misc logic on the logic die.
	Uncore
)

func (k BlockKind) String() string {
	switch k {
	case BankArray:
		return "bank"
	case RowDecoder:
		return "rowdec"
	case ColumnPath:
		return "colpath"
	case Peripheral:
		return "periph"
	case TSVRegion:
		return "tsv"
	case Core:
		return "core"
	case Cache:
		return "cache"
	case Uncore:
		return "uncore"
	default:
		return fmt.Sprintf("BlockKind(%d)", uint8(k))
	}
}

// Block is one placed floorplan block.
type Block struct {
	Name string
	Kind BlockKind
	Rect geom.Rect
	// Bank is the bank index this block belongs to, or -1 for shared
	// blocks (peripheral strips, TSV regions, logic blocks).
	Bank int
}

// Floorplan is a complete block-level die floorplan.
type Floorplan struct {
	Name    string
	Outline geom.Rect
	Blocks  []Block
	// NumBanks is the number of DRAM banks (0 for logic dies).
	NumBanks int
}

// BankBlocks returns all blocks belonging to bank b.
func (f *Floorplan) BankBlocks(b int) []Block {
	var out []Block
	for _, bl := range f.Blocks {
		if bl.Bank == b {
			out = append(out, bl)
		}
	}
	return out
}

// BankArrayRect returns the cell-array rectangle of bank b.
func (f *Floorplan) BankArrayRect(b int) (geom.Rect, error) {
	for _, bl := range f.Blocks {
		if bl.Bank == b && bl.Kind == BankArray {
			return bl.Rect, nil
		}
	}
	return geom.Rect{}, fmt.Errorf("floorplan %s: no bank array for bank %d", f.Name, b)
}

// KindBlocks returns all blocks of the given kind.
func (f *Floorplan) KindBlocks(k BlockKind) []Block {
	var out []Block
	for _, bl := range f.Blocks {
		if bl.Kind == k {
			out = append(out, bl)
		}
	}
	return out
}

// Validate checks that every block lies inside the outline, that bank
// arrays do not overlap each other, and that bank indexing is dense.
func (f *Floorplan) Validate() error {
	if f.Outline.Empty() {
		return fmt.Errorf("floorplan %s: empty outline", f.Name)
	}
	banksSeen := map[int]bool{}
	var arrays []geom.Rect
	for _, bl := range f.Blocks {
		in := f.Outline.Intersect(bl.Rect)
		if bl.Rect.Area() > 0 && in.Area() < bl.Rect.Area()*(1-1e-9) {
			return fmt.Errorf("floorplan %s: block %s %v escapes outline %v",
				f.Name, bl.Name, bl.Rect, f.Outline)
		}
		if bl.Kind == BankArray {
			if bl.Bank < 0 {
				return fmt.Errorf("floorplan %s: bank array %s without bank index", f.Name, bl.Name)
			}
			banksSeen[bl.Bank] = true
			for _, other := range arrays {
				// Tolerate sub-epsilon slivers from float rounding at
				// touching bank edges.
				if other.Intersect(bl.Rect).Area() > 1e-9 {
					return fmt.Errorf("floorplan %s: bank array %s overlaps another array", f.Name, bl.Name)
				}
			}
			arrays = append(arrays, bl.Rect)
		}
	}
	if len(banksSeen) != f.NumBanks {
		return fmt.Errorf("floorplan %s: %d bank arrays, want %d", f.Name, len(banksSeen), f.NumBanks)
	}
	for b := 0; b < f.NumBanks; b++ {
		if !banksSeen[b] {
			return fmt.Errorf("floorplan %s: bank index %d missing", f.Name, b)
		}
	}
	return nil
}

// MirrorX returns a copy of the floorplan mirrored about the die's vertical
// center line, modelling the mask-mirroring used for F2F mates.
func (f *Floorplan) MirrorX() *Floorplan {
	axis := f.Outline.Center().X
	out := &Floorplan{
		Name:     f.Name + "/mirrored",
		Outline:  f.Outline,
		NumBanks: f.NumBanks,
		Blocks:   make([]Block, len(f.Blocks)),
	}
	for i, bl := range f.Blocks {
		bl.Rect = bl.Rect.MirrorX(axis)
		out.Blocks[i] = bl
	}
	return out
}
