package speckey_test

import (
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/speckey"
)

// Length-prefixed framing must keep adjacent fields from absorbing each
// other: "ab"+"c" and "a"+"bc" differ even though their concatenation is
// identical.
func TestBuilderFraming(t *testing.T) {
	var a, b speckey.Builder
	a.Str("ab")
	a.Str("c")
	b.Str("a")
	b.Str("bc")
	if a.String() == b.String() {
		t.Fatalf("framing collision: %q", a.String())
	}
}

func TestUsageOrderIndependent(t *testing.T) {
	var a, b speckey.Builder
	a.Usage(map[string]float64{"M2": 0.1, "M3": 0.2})
	b.Usage(map[string]float64{"M3": 0.2, "M2": 0.1})
	if a.String() != b.String() {
		t.Fatalf("usage key depends on insertion order: %q vs %q", a.String(), b.String())
	}
}

func TestSpecStableAndLogicSensitive(t *testing.T) {
	bench, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	s := bench.Spec
	if speckey.Spec(s, false) != speckey.Spec(s.Clone(), false) {
		t.Error("identical specs produced different keys")
	}
	if speckey.Spec(s, false) == speckey.Spec(s, true) {
		t.Error("withLogic not reflected in the key")
	}
}

// The topology/values split contract: changing only a usage magnitude
// keeps the topology key (the mesh shape is unchanged — the serving layer
// may restamp) while the values key and the full key must both move.
func TestTopologyValuesSplit(t *testing.T) {
	bench, err := bench3d.StackedDDR3On()
	if err != nil {
		t.Fatal(err)
	}
	s := bench.Spec
	v := s.Clone()
	for name := range v.Usage {
		v.Usage[name] *= 0.9
	}
	if speckey.Topology(s) != speckey.Topology(v) {
		t.Error("usage magnitude change altered the topology key")
	}
	if speckey.Values(s, true) == speckey.Values(v, true) {
		t.Error("usage magnitude change not reflected in the values key")
	}
	if speckey.Spec(s, true) == speckey.Spec(v, true) {
		t.Error("usage magnitude change not reflected in the full key")
	}

	// Shape changes must move the topology key.
	shape := s.Clone()
	shape.TSVCount++
	if speckey.Topology(s) == speckey.Topology(shape) {
		t.Error("TSV count change not reflected in the topology key")
	}
	pitch := s.Clone()
	pitch.MeshPitch = 0.7
	if speckey.Topology(s) == speckey.Topology(pitch) {
		t.Error("mesh pitch change not reflected in the topology key")
	}

	// Dropping a layer changes the usage support, hence the shape.
	var dropped string
	sup := s.Clone()
	for name := range sup.Usage {
		dropped = name
		break
	}
	delete(sup.Usage, dropped)
	if speckey.Topology(s) == speckey.Topology(sup) {
		t.Errorf("dropping layer %s from the usage support kept the topology key", dropped)
	}
}

// Support is order-independent and ignores zero entries (a zero-usage
// layer is never built, so it is not part of the shape).
func TestSupportOrderAndZeroes(t *testing.T) {
	var a, b speckey.Builder
	a.Support(map[string]float64{"M2": 0.1, "M3": 0.2, "M4": 0})
	b.Support(map[string]float64{"M3": 0.9, "M2": 0.4})
	if a.String() != b.String() {
		t.Fatalf("support depends on magnitudes, order, or zero entries: %q vs %q", a.String(), b.String())
	}
}

// The full key is the framed concatenation of the two sub-keys, so no
// two designs can agree on Spec but disagree on Topology or Values.
func TestSpecIsFramedSplit(t *testing.T) {
	bench, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	s := bench.Spec
	var k speckey.Builder
	k.Str(speckey.Topology(s))
	k.Str(speckey.Values(s, false))
	if speckey.Spec(s, false) != k.String() {
		t.Fatal("Spec is not the framed Topology+Values concatenation")
	}
}

// Point is the framed concatenation of its three parts, so a design key,
// a state key and an activity can never absorb one another.
func TestPointIsFramed(t *testing.T) {
	var k speckey.Builder
	k.Str("design")
	k.Str("state")
	k.Float(0.25)
	if got := speckey.Point("design", "state", 0.25); got != k.String() {
		t.Fatalf("Point = %q, want the framed concatenation %q", got, k.String())
	}
	if speckey.Point("ab", "c", 1) == speckey.Point("a", "bc", 1) {
		t.Error("framing collision between the design and state keys")
	}
}
