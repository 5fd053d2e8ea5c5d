package units

import (
	"math"
	"testing"
)

func TestScaleConstants(t *testing.T) {
	if 1000*Micron != Millimetre {
		t.Error("1000 um != 1 mm")
	}
	if 1000*MilliOhm != Ohm {
		t.Error("1000 mOhm != 1 Ohm")
	}
	if 1000*MilliWatt != Watt {
		t.Error("1000 mW != 1 W")
	}
	if 1000*MilliVolt != Volt {
		t.Error("1000 mV != 1 V")
	}
}

// TestApproxEqual pins the tolerance rule: NaN equals nothing, an
// infinity only itself, the tolerance is absolute below magnitude 1 and
// relative to the larger magnitude above it, both edges inclusive, and
// signed zeros are equal. Every operand is exactly representable, so the
// edges are exact.
func TestApproxEqual(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		a, b, tol float64
		want      bool
	}{
		{nan, nan, Tol, false},
		{nan, 1, Tol, false},
		{1, nan, 1, false},
		{inf, inf, Tol, true},
		{-inf, -inf, Tol, true},
		{inf, -inf, Tol, false},
		{inf, 1.5, Tol, false},
		{1.5, -inf, Tol, false},
		{-inf, 1e308, 1, false},
		{0.25, 0.5, 0.25, true},    // below 1: |a−b| = tol
		{0.25, 0.625, 0.25, false}, // below 1: |a−b| > tol
		{0, 0.75, 0.5, false},      // below 1 the tolerance is not relative
		{3, 4, 0.25, true},         // above 1: |a−b| = tol·max(|a|,|b|)
		{3, 4.5, 0.25, false},      // above 1: |a−b| > tol·max
		{-3, -4, 0.25, true},
		{0, math.Copysign(0, -1), 0, true},
		{math.Copysign(0, -1), 0.5, 0.5, true},
		{1, 1 + 1e-12, Tol, true},
		{1, 1 + 1e-6, Tol, false},
	} {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
		if got := ApproxEqual(c.b, c.a, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v (not symmetric)", c.b, c.a, c.tol, got, c.want)
		}
	}
	if !SameValue(2, 2+1e-10) || SameValue(2, 2.001) || SameValue(inf, 2) {
		t.Error("SameValue does not apply ApproxEqual at Tol")
	}
}
