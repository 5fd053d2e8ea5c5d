package powermap_test

import (
	"math"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/floorplan"
	"pdn3d/internal/powermap"
)

// Loads is exactly its three patterns composed in order — the standby
// pattern at idle(io), each active bank's fixed load, the I/O pattern at
// ioP(io) — rectangle for rectangle and bit for bit, and the weighted
// patterns are the unit patterns scaled. The look-up table's unit-term
// responses rest on both.
func TestLoadsComposePatterns(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		m, fp := b.DRAMPower, b.Spec.DRAM
		top := fp.NumBanks - 1
		for _, active := range [][]int{nil, {top}, {top, top - 2}, {0, 1, 2}, {top, 0}} {
			for _, io := range []float64{0.01, 0.25, 1.0 / 3, 0.5, 0.77, 1.0} {
				got, err := m.Loads(fp, active, io)
				if err != nil {
					t.Fatal(err)
				}
				idle, ioP := m.Weights(io)
				want, err := m.StandbyLoads(fp, idle)
				if err != nil {
					t.Fatal(err)
				}
				if len(active) > 0 {
					for _, bank := range active {
						bl, err := m.BankLoads(fp, bank)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, bl...)
					}
					il, err := m.IOLoads(fp, ioP)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, il...)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %v@%g: %d loads, composed patterns give %d", b.Name, active, io, len(got), len(want))
				}
				for i := range got {
					if got[i].Rect != want[i].Rect || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
						t.Fatalf("%s %v@%g: load %d is %v, composed %v", b.Name, active, io, i, got[i], want[i])
					}
				}
				unitStandby, unitIO := patterns(t, m, fp, 1, 1)
				standby, ioLoads := patterns(t, m, fp, idle, ioP)
				checkScaled(t, b.Name+" standby", unitStandby, standby, idle)
				checkScaled(t, b.Name+" io", unitIO, ioLoads, ioP)
			}
		}
	}
}

// patterns returns the standby pattern at weight idle and the I/O
// pattern at weight ioP.
func patterns(t *testing.T, m *powermap.DRAMModel, fp *floorplan.Floorplan, idle, ioP float64) (standby, io []powermap.Load) {
	t.Helper()
	standby, err := m.StandbyLoads(fp, idle)
	if err != nil {
		t.Fatal(err)
	}
	if io, err = m.IOLoads(fp, ioP); err != nil {
		t.Fatal(err)
	}
	return standby, io
}

// checkScaled holds each load of got to w times the unit pattern's, over
// the same rectangles, to rounding.
func checkScaled(t *testing.T, name string, unit, got []powermap.Load, w float64) {
	t.Helper()
	if w == 0 {
		if len(got) != 0 {
			t.Errorf("%s: weight 0 drew %d loads", name, len(got))
		}
		return
	}
	if len(got) != len(unit) {
		t.Fatalf("%s: %d loads at weight %g, %d at unit weight", name, len(got), w, len(unit))
	}
	for i := range got {
		if got[i].Rect != unit[i].Rect || math.Abs(got[i].P-w*unit[i].P) > 1e-14*got[i].P {
			t.Errorf("%s: load %d at weight %g is %v, want %g x %v", name, i, w, got[i], w, unit[i])
		}
	}
}
