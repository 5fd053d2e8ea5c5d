package pdn

import (
	"math"

	"pdn3d/internal/geom"
)

// edgeInset is the distance from the die edge to TSV/pad columns, leaving
// room for keep-out zones and the seal ring.
const edgeInset = 0.15

// TSVSites returns the PG TSV positions on a DRAM die for the spec's style
// and count. All inter-die interfaces use the same pattern (the dies are
// identical, paper §4.1).
func (s *Spec) TSVSites() []geom.Point {
	return tsvSites(s.DRAM.Outline, s.TSVStyle, s.TSVCount, s.DRAMTech.PGTSV.Pitch)
}

// MaxTSVCount bounds a design's PG TSV count: the sites a square grid at
// the minimum PG TSV pitch puts on the DRAM die. The site generators
// allocate one point per TSV, so a requested count is checked against it
// before anything is built.
func (s *Spec) MaxTSVCount() int {
	nx, ny := geom.Dims(s.DRAM.Outline, s.DRAMTech.PGTSV.Pitch)
	return int(nx * ny)
}

func tsvSites(outline geom.Rect, style TSVLocation, count int, pitch float64) []geom.Point {
	switch style {
	case EdgeTSV:
		return edgeSites(outline, count, pitch)
	case CenterTSV:
		return centerCluster(outline, count, pitch)
	default:
		return uniformSpread(outline.Inset(edgeInset*2), count)
	}
}

// edgeBandFrac is the fraction of the die height the edge TSV columns
// span, centered on the peripheral row: edge TSVs cluster next to the
// center pad row's ends, minimizing pad-to-TSV routing (the arrangement of
// the Kang et al. 8 Gb 3D DDR3 design the paper cites).
const edgeBandFrac = 0.85

// edgeSites splits count sites over the left and right die edges, stacking
// extra columns inward when one column per side cannot hold them at the
// minimum pitch.
func edgeSites(outline geom.Rect, count int, pitch float64) []geom.Point {
	if count <= 0 {
		return nil
	}
	nLeft := (count + 1) / 2
	nRight := count / 2
	span := outline.H() * edgeBandFrac
	y0 := outline.Center().Y - span/2
	maxPerCol := int(span/pitch) + 1
	var out []geom.Point
	side := func(n int, left bool) {
		cols := (n + maxPerCol - 1) / maxPerCol
		if cols == 0 {
			return
		}
		base := n / cols
		extra := n % cols
		for c := 0; c < cols; c++ {
			inCol := base
			if c < extra {
				inCol++
			}
			x := outline.X0 + edgeInset + float64(c)*pitch
			if !left {
				x = outline.X1 - edgeInset - float64(c)*pitch
			}
			for k := 0; k < inCol; k++ {
				y := y0
				if inCol > 1 {
					y += span * float64(k) / float64(inCol-1)
				} else {
					y += span / 2
				}
				out = append(out, geom.Pt(x, y))
			}
		}
	}
	side(nLeft, true)
	side(nRight, false)
	return out
}

// centerBandFrac is the fraction of the die width the center TSV band
// spans: center TSVs sit in rows inside the center peripheral strip (the
// JEDEC Wide I/O bump field has the same shape), not in a point cluster.
const centerBandFrac = 0.20

// centerCluster places count sites in a horizontal band across the die
// center: as many rows as needed at the minimum TSV pitch, spanning
// centerBandFrac of the die width.
func centerCluster(outline geom.Rect, count int, pitch float64) []geom.Point {
	if count <= 0 {
		return nil
	}
	bandW := outline.W() * centerBandFrac
	perRow := int(bandW/pitch) + 1
	if perRow > count {
		perRow = count
	}
	rows := (count + perRow - 1) / perRow
	c := outline.Center()
	out := make([]geom.Point, 0, count)
	for k := 0; k < count; k++ {
		i, j := k%perRow, k/perRow
		inRow := perRow
		if j == rows-1 && count%perRow != 0 {
			inRow = count % perRow
		}
		var x float64
		if inRow > 1 {
			x = c.X - bandW/2 + bandW*float64(i)/float64(inRow-1)
		} else {
			x = c.X
		}
		y := c.Y + (float64(j)-float64(rows-1)/2)*pitch
		out = append(out, geom.Pt(x, y))
	}
	return out
}

// uniformSpread distributes count sites in a near-uniform grid over r,
// matching the rect's aspect ratio.
func uniformSpread(r geom.Rect, count int) []geom.Point {
	if count <= 0 || r.Empty() {
		return nil
	}
	aspect := r.W() / r.H()
	cols := int(math.Round(math.Sqrt(float64(count) * aspect)))
	if cols < 1 {
		cols = 1
	}
	if cols > count {
		cols = count
	}
	rows := (count + cols - 1) / cols
	out := make([]geom.Point, 0, count)
	for k := 0; k < count; k++ {
		i, j := k%cols, k/cols
		var x, y float64
		if cols > 1 {
			x = r.X0 + r.W()*float64(i)/float64(cols-1)
		} else {
			x = r.Center().X
		}
		if rows > 1 {
			y = r.Y0 + r.H()*float64(j)/float64(rows-1)
		} else {
			y = r.Center().Y
		}
		out = append(out, geom.Pt(x, y))
	}
	return out
}

// C4Sites returns the package bump array under the stack's bottom die (the
// logic die for on-chip designs, the bottom DRAM die otherwise).
func (s *Spec) C4Sites() []geom.Point {
	outline := s.DRAM.Outline
	pitch := s.DRAMTech.C4.Pitch
	if s.OnLogic {
		outline = s.Logic.Outline
		pitch = s.LogicTech.C4.Pitch
	}
	r := outline.Inset(edgeInset)
	nx := int(r.W()/pitch) + 1
	ny := int(r.H()/pitch) + 1
	out := make([]geom.Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			out = append(out, geom.Pt(r.X0+float64(i)*pitch, r.Y0+float64(j)*pitch))
		}
	}
	return out
}

// LandingSites returns where the supply current enters the bottom of the
// DRAM stack, together with each site's lateral misalignment distance to
// the nearest package bump (zero when alignment applies).
//
// Off-chip, the package substrate routes bumps freely under the TSV
// pattern, so the landing is the TSV pattern with zero misalignment. An
// interface RDL forces a center landing regardless of TSV style — the RDL
// then reroutes laterally (paper Figure 6 (c)/(d)). On-chip designs without
// AlignTSV place landings at the uniform TSV pitch and pay the detour to
// the nearest C4 through the logic die's local metal (paper §3.2).
func (s *Spec) LandingSites() []LandingSite {
	var pts []geom.Point
	if s.RDL == RDLInterface {
		pts = centerCluster(s.DRAM.Outline, s.TSVCount, s.DRAMTech.PGTSV.Pitch)
	} else {
		pts = s.TSVSites()
	}
	out := make([]LandingSite, len(pts))
	if !s.OnLogic {
		for i, p := range pts {
			out[i] = LandingSite{Pos: p}
		}
		return out
	}
	// On-chip: the DRAM die is centered on the logic die; translate
	// landing points into logic coordinates.
	off := s.logicOffset()
	c4 := s.C4Sites()
	for i, p := range pts {
		lp := p.Add(off)
		nearest := nearestPoint(lp, c4)
		if s.AlignTSV {
			out[i] = LandingSite{Pos: nearest}
		} else {
			out[i] = LandingSite{Pos: lp, Misalign: lp.Dist(nearest)}
		}
	}
	return out
}

// RDLEntrySites returns, in DRAM-die coordinates, the points where the
// supply lands on the interface RDL (a center cluster: the RDL's purpose is
// rerouting a center landing out to the TSV pattern). Its order matches
// LandingSites when RDL == RDLInterface.
func (s *Spec) RDLEntrySites() []geom.Point {
	return centerCluster(s.DRAM.Outline, s.TSVCount, s.DRAMTech.PGTSV.Pitch)
}

// LandingSite is one supply entry point at the bottom of the DRAM stack.
type LandingSite struct {
	// Pos is the site position in bottom-die (logic or package)
	// coordinates.
	Pos geom.Point
	// Misalign is the lateral detour distance in mm from the TSV landing
	// to the nearest C4 bump; current covers it through the logic die's
	// local metal.
	Misalign float64
}

// logicOffset translates DRAM-die coordinates into logic-die coordinates
// (the DRAM stack sits centered on the host die).
func (s *Spec) logicOffset() geom.Point {
	lc := s.Logic.Outline.Center()
	dc := s.DRAM.Outline.Center()
	return lc.Sub(dc)
}

func nearestPoint(p geom.Point, pts []geom.Point) geom.Point {
	best := pts[0]
	bd := p.Dist(best)
	for _, q := range pts[1:] {
		if d := p.Dist(q); d < bd {
			bd, best = d, q
		}
	}
	return best
}

// WireSites returns the bond-wire pad positions along the left and right
// edges of a DRAM die (backside pads, paper §4.1).
func (s *Spec) WireSites() []geom.Point {
	n := s.EffWiresPerDie()
	if n <= 0 {
		return nil
	}
	o := s.DRAM.Outline
	nLeft := (n + 1) / 2
	nRight := n / 2
	out := make([]geom.Point, 0, n)
	place := func(cnt int, x float64) {
		for k := 0; k < cnt; k++ {
			y := o.Y0 + edgeInset + (o.H()-2*edgeInset)*(float64(k)+0.5)/float64(cnt)
			out = append(out, geom.Pt(x, y))
		}
	}
	place(nLeft, o.X0+edgeInset/2)
	place(nRight, o.X1-edgeInset/2)
	return out
}

// WireLength returns the bond-wire length in mm for die d (0-based from
// the stack bottom): lower dies sit closer to the substrate, so their
// wires are shorter; each die adds roughly 50 µm of stack height, and the
// lateral run to the package bond finger dominates.
func (s *Spec) WireLength(die int) float64 {
	const lateral = 1.2  // mm to the bond finger
	const perDie = 0.05  // mm of stack height per die
	const baseRise = 0.3 // mm die-attach and loop height
	return lateral + baseRise + perDie*float64(die+1)
}
