// Package layout renders auto-generated floorplans and PDN placements as
// SVG — the analogue of the paper's Figure 3 layout views. A drawing shows
// the die outline, the floorplan blocks colored by kind, the PG TSV /
// landing / bond-wire sites, and optionally an IR-drop heat overlay from an
// analysis result.
package layout

import (
	"bufio"
	"fmt"
	"io"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/pdn"
	"pdn3d/internal/rmesh"
)

// pxPerMM is the drawing scale.
const pxPerMM = 60.0

// blockFill maps block kinds to fill colors.
func blockFill(k floorplan.BlockKind) string {
	switch k {
	case floorplan.BankArray:
		return "#9ecae1"
	case floorplan.RowDecoder:
		return "#6baed6"
	case floorplan.ColumnPath:
		return "#c6dbef"
	case floorplan.Peripheral:
		return "#fdd0a2"
	case floorplan.TSVRegion:
		return "#e5e5e5"
	case floorplan.Core:
		return "#fcae91"
	case floorplan.Cache:
		return "#cbc9e2"
	case floorplan.Uncore:
		return "#bae4b3"
	default:
		return "#dddddd"
	}
}

// Options selects what a drawing includes.
type Options struct {
	// Title is drawn above the die.
	Title string
	// ShowTSVs draws the PG TSV sites.
	ShowTSVs bool
	// ShowWires draws the bond-wire pads.
	ShowWires bool
	// IR optionally overlays an IR-drop heat map of one mesh layer.
	IR []float64
	// Layer selects the overlay layer (required with IR).
	Layer *rmesh.Layer
}

// WriteSVG renders one die of the design to SVG.
func WriteSVG(w io.Writer, spec *pdn.Spec, fp *floorplan.Floorplan, opt Options) error {
	if fp == nil {
		return fmt.Errorf("layout: nil floorplan")
	}
	if opt.IR != nil && opt.Layer == nil {
		return fmt.Errorf("layout: IR overlay needs a layer")
	}
	bw := bufio.NewWriter(w)
	o := fp.Outline
	width := o.W()*pxPerMM + 20
	height := o.H()*pxPerMM + 40
	// SVG y grows downward; flip so the floorplan's y grows upward.
	fy := func(y float64) float64 { return (o.Y1-y)*pxPerMM + 30 }
	fx := func(x float64) float64 { return (x-o.X0)*pxPerMM + 10 }

	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	if opt.Title != "" {
		fmt.Fprintf(bw, `<text x="10" y="20" font-family="monospace" font-size="14">%s</text>`+"\n", opt.Title)
	}
	// Die outline.
	fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#fafafa" stroke="black" stroke-width="1.5"/>`+"\n",
		fx(o.X0), fy(o.Y1), o.W()*pxPerMM, o.H()*pxPerMM)
	// Blocks.
	for _, bl := range fp.Blocks {
		r := bl.Rect
		fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#666" stroke-width="0.5"><title>%s</title></rect>`+"\n",
			fx(r.X0), fy(r.Y1), r.W()*pxPerMM, r.H()*pxPerMM, blockFill(bl.Kind), bl.Name)
	}
	// IR heat overlay: semi-transparent red cells scaled by drop.
	if opt.IR != nil {
		l := opt.Layer
		var mx float64
		for n := l.Offset; n < l.Offset+l.Grid.N(); n++ {
			if opt.IR[n] > mx {
				mx = opt.IR[n]
			}
		}
		if mx > 0 {
			cw := l.Grid.StepX() * pxPerMM
			ch := l.Grid.StepY() * pxPerMM
			for j := 0; j < l.Grid.NY; j++ {
				for i := 0; i < l.Grid.NX; i++ {
					v := opt.IR[l.Offset+l.Grid.Index(i, j)] / mx
					if v < 0.05 {
						continue
					}
					p := l.Grid.Pos(i, j)
					fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="rgb(255,%d,%d)" fill-opacity="%.2f"/>`+"\n",
						fx(p.X)-cw/2, fy(p.Y)-ch/2, cw, ch,
						int(220*(1-v)), int(180*(1-v)), 0.25+0.55*v)
				}
			}
			fmt.Fprintf(bw, `<text x="10" y="%.0f" font-family="monospace" font-size="12">max IR %.2f mV (%s)</text>`+"\n",
				height-6, mx*1000, l.Key)
		}
	}
	// TSV sites.
	if opt.ShowTSVs {
		for _, p := range spec.TSVSites() {
			fmt.Fprintf(bw, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="black"/>`+"\n", fx(p.X), fy(p.Y))
		}
	}
	// Bond-wire pads.
	if opt.ShowWires && spec.WireBond {
		for _, p := range spec.WireSites() {
			fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="6" height="6" fill="none" stroke="purple" stroke-width="1.2"/>`+"\n",
				fx(p.X)-3, fy(p.Y)-3)
		}
	}
	fmt.Fprint(bw, "</svg>\n")
	return bw.Flush()
}
