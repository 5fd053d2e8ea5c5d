package layout

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
)

func TestWriteSVGBasics(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = WriteSVG(&sb, b.Spec, b.Spec.DRAM, Options{Title: "ddr3", ShowTSVs: true})
	if err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(svg, "<circle") != b.Spec.TSVCount {
		t.Errorf("TSV circles = %d, want %d", strings.Count(svg, "<circle"), b.Spec.TSVCount)
	}
	// One rect per block plus the outline.
	wantRects := len(b.Spec.DRAM.Blocks) + 1
	if got := strings.Count(svg, "<rect"); got != wantRects {
		t.Errorf("rects = %d, want %d", got, wantRects)
	}
	if !strings.Contains(svg, "bank7.array") {
		t.Error("block titles missing")
	}
}

func TestWriteSVGWithIROverlay(t *testing.T) {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.5
	a, err := irdrop.New(spec, b.DRAMPower, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeCounts([]int{0, 0, 0, 2}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := a.Model.Layer("dram3/M2")
	if !ok {
		t.Fatal("layer missing")
	}
	var sb strings.Builder
	if err := WriteSVG(&sb, spec, spec.DRAM, Options{IR: res.IR, Layer: l}); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), 0.0
	for _, v := range res.IR[l.Offset : l.Offset+l.Grid.N()] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo < 0 || hi <= lo {
		t.Fatalf("layer IR range [%g, %g] inconsistent", lo, hi)
	}
	svg := sb.String()
	if caption := fmt.Sprintf("max IR %.2f mV (%s)", hi*1000, l.Key); !strings.Contains(svg, caption) {
		t.Errorf("heat caption %q missing", caption)
	}
	if strings.Count(svg, "fill-opacity") < 10 {
		t.Error("expected a populated heat overlay")
	}
}

func TestWriteSVGErrors(t *testing.T) {
	b, _ := bench3d.StackedDDR3Off()
	var sb strings.Builder
	if err := WriteSVG(&sb, b.Spec, nil, Options{}); err == nil {
		t.Error("nil floorplan: want error")
	}
	if err := WriteSVG(&sb, b.Spec, b.Spec.DRAM, Options{IR: []float64{1}}); err == nil {
		t.Error("IR without layer: want error")
	}
}

func TestWriteSVGWireBondPads(t *testing.T) {
	b, _ := bench3d.StackedDDR3Off()
	spec := b.Spec.Clone()
	spec.WireBond = true
	var sb strings.Builder
	if err := WriteSVG(&sb, spec, spec.DRAM, Options{ShowWires: true}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "purple"); got != spec.EffWiresPerDie() {
		t.Errorf("wire pads = %d, want %d", got, spec.EffWiresPerDie())
	}
}
