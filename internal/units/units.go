// Package units defines the physical units, their scale factors and the
// tolerance comparisons used throughout the platform.
//
// Internal canonical units are chosen so that typical 3D-DRAM quantities
// have convenient magnitudes and so that no conversion is needed inside the
// numerical core:
//
//   - length:      millimetres (mm)
//   - resistance:  ohms (Ω)
//   - sheet resistance: ohms per square (Ω/sq)
//   - power:       milliwatts (mW)
//   - voltage:     volts (V)
//   - current:     milliamperes (mA)  — consistent with mW / V
//
// With power in mW and voltage in V, current I = P/V comes out in mA, and
// IR products (mA · Ω) come out in millivolts, which is the unit the paper
// reports all IR-drop results in.
package units

import "math"

// Common scale factors relative to the canonical units.
const (
	// Micron converts micrometres to the canonical length unit (mm).
	Micron = 1e-3
	// Millimetre is the canonical length unit.
	Millimetre = 1.0
	// MilliOhm converts milliohms to the canonical resistance unit (Ω).
	MilliOhm = 1e-3
	// Ohm is the canonical resistance unit.
	Ohm = 1.0
	// MilliWatt is the canonical power unit.
	MilliWatt = 1.0
	// Watt converts watts to the canonical power unit (mW).
	Watt = 1e3
	// Volt is the canonical voltage unit.
	Volt = 1.0
	// MilliVolt converts millivolts to volts.
	MilliVolt = 1e-3
)

// Tol is the default relative tolerance for comparing configuration
// values (voltages, range endpoints, usage fractions). It is far looser
// than one ulp — enough to absorb arithmetic rounding — yet far tighter
// than any physically meaningful difference in the canonical units.
const Tol = 1e-9

// ApproxEqual reports whether a and b agree to within tol, interpreted
// relative to their magnitude (and absolutely for magnitudes below 1).
// An infinity equals only itself, and NaN equals nothing. It is the
// sanctioned replacement for raw ==/!= between floats, which the floateq
// analyzer rejects in analysis code.
func ApproxEqual(a, b, tol float64) bool {
	if a == b { //pdnlint:ignore floateq exact-match fast path; also covers equal infinities, where a-b is NaN
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // tol·m would be +Inf and admit any value
	}
	m := math.Abs(a)
	if bm := math.Abs(b); bm > m {
		m = bm
	}
	if m < 1 {
		m = 1
	}
	return math.Abs(a-b) <= tol*m
}

// SameValue reports whether two configuration values coincide at the
// default tolerance — the common "is this sweep axis collapsed / are
// these knobs the same" test.
func SameValue(a, b float64) bool { return ApproxEqual(a, b, Tol) }
