package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v, want (-2,6)", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
}

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", d)
	}
}

func TestRectBasics(t *testing.T) {
	r := R(1, 2, 3, 4)
	if r.W() != 3 || r.H() != 4 {
		t.Fatalf("W,H = %g,%g want 3,4", r.W(), r.H())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %g, want 12", r.Area())
	}
	if c := r.Center(); c != Pt(2.5, 4) {
		t.Errorf("Center = %v, want (2.5,4)", c)
	}
	if r.Empty() {
		t.Error("non-empty rect reported empty")
	}
	if !(Rect{}).Empty() {
		t.Error("zero rect should be empty")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 2, 2)
	cases := []struct {
		p        Point
		in, inCl bool
	}{
		{Pt(1, 1), true, true},
		{Pt(0, 0), true, true},
		{Pt(2, 2), false, true},
		{Pt(2.0001, 1), false, false},
		{Pt(-0.1, 1), false, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
		if got := r.ContainsClosed(c.p); got != c.inCl {
			t.Errorf("ContainsClosed(%v) = %v, want %v", c.p, got, c.inCl)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(2, 2, 4, 4)
	got := a.Intersect(b)
	if got != (Rect{2, 2, 4, 4}) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps = false, want true")
	}
	c := R(10, 10, 1, 1)
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	if a.Overlaps(c) {
		t.Error("disjoint Overlaps = true")
	}
	// Touching edges share no interior area.
	d := R(4, 0, 2, 4)
	if a.Overlaps(d) {
		t.Error("edge-touching rects should not overlap")
	}
}

func TestRectInsetTranslateMirror(t *testing.T) {
	r := R(1, 1, 4, 2)
	if got := r.Inset(0.5); got != (Rect{1.5, 1.5, 4.5, 2.5}) {
		t.Errorf("Inset = %v", got)
	}
	if got := r.Translate(Pt(1, -1)); got != (Rect{2, 0, 6, 2}) {
		t.Errorf("Translate = %v", got)
	}
	if got := r.MirrorX(3); got != (Rect{1, 1, 5, 3}) {
		t.Errorf("MirrorX = %v", got)
	}
}

func TestMirrorPreservesArea(t *testing.T) {
	f := func(x, y, w, h, axis float64) bool {
		x, y, axis = norm(x), norm(y), norm(axis)
		w, h = math.Abs(norm(w))+0.01, math.Abs(norm(h))+0.01
		r := R(x, y, w, h)
		mx := r.MirrorX(axis)
		return approx(mx.Area(), r.Area()) && approx(mx.MirrorX(axis).X0, r.X0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntersectIsCommutativeAndContained(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := R(norm(ax), norm(ay), math.Abs(norm(aw))+0.01, math.Abs(norm(ah))+0.01)
		b := R(norm(bx), norm(by), math.Abs(norm(bw))+0.01, math.Abs(norm(bh))+0.01)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab != ba {
			return false
		}
		if ab.Empty() {
			return true
		}
		return ab.Area() <= a.Area()+1e-9 && ab.Area() <= b.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// norm squashes arbitrary quick-generated floats into a tame range.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
