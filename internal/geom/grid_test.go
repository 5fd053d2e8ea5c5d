package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(Rect{}, 0.1); err == nil {
		t.Error("empty outline: want error")
	}
	if _, err := NewGrid(R(0, 0, 1, 1), 0); err == nil {
		t.Error("zero pitch: want error")
	}
	if _, err := NewGrid(R(0, 0, 1, 1), -1); err == nil {
		t.Error("negative pitch: want error")
	}
}

func TestGridDimensions(t *testing.T) {
	g := MustGrid(R(0, 0, 1.0, 0.5), 0.1)
	if g.NX != 11 || g.NY != 6 {
		t.Fatalf("NX,NY = %d,%d want 11,6", g.NX, g.NY)
	}
	if g.N() != 66 {
		t.Errorf("N = %d want 66", g.N())
	}
	if !approx(g.StepX(), 0.1) || !approx(g.StepY(), 0.1) {
		t.Errorf("steps = %g,%g want 0.1", g.StepX(), g.StepY())
	}
}

func TestGridNonMultiplePitchClamps(t *testing.T) {
	// 1.0 mm outline with 0.3 mm pitch: 4 nodes, spacing 1/3.
	g := MustGrid(R(0, 0, 1, 1), 0.3)
	if g.NX != 4 {
		t.Fatalf("NX = %d want 4", g.NX)
	}
	last := g.Pos(g.NX-1, 0)
	if !approx(last.X, 1.0) {
		t.Errorf("last node x = %g, want exactly outline edge 1.0", last.X)
	}
}

func TestGridMinimumTwoNodes(t *testing.T) {
	g := MustGrid(R(0, 0, 0.01, 0.01), 1.0)
	if g.NX < 2 || g.NY < 2 {
		t.Errorf("NX,NY = %d,%d; want >= 2 each", g.NX, g.NY)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := MustGrid(R(0, 0, 1, 0.5), 0.25)
	seen := make([]bool, g.N())
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			idx := g.Index(i, j)
			if idx < 0 || idx >= g.N() || seen[idx] {
				t.Fatalf("Index(%d,%d) = %d repeats or leaves [0,%d)", i, j, idx, g.N())
			}
			seen[idx] = true
			if back := g.NearestIndex(g.Pos(i, j)); back != idx {
				t.Fatalf("round trip (%d,%d) -> index %d -> nearest %d", i, j, idx, back)
			}
		}
	}
}

func TestGridNearest(t *testing.T) {
	g := MustGrid(R(0, 0, 1, 1), 0.5) // 3x3 nodes
	cases := []struct {
		p    Point
		i, j int
	}{
		{Pt(0, 0), 0, 0},
		{Pt(0.24, 0.24), 0, 0},
		{Pt(0.26, 0.26), 1, 1},
		{Pt(1, 1), 2, 2},
		{Pt(5, 5), 2, 2},   // clamped
		{Pt(-5, -5), 0, 0}, // clamped
		{Pt(0.5, 0.9), 1, 2},
	}
	for _, c := range cases {
		i, j := g.Nearest(c.p)
		if i != c.i || j != c.j {
			t.Errorf("Nearest(%v) = (%d,%d), want (%d,%d)", c.p, i, j, c.i, c.j)
		}
	}
}

func TestGridNodesIn(t *testing.T) {
	g := MustGrid(R(0, 0, 1, 1), 0.5) // 3x3 nodes at 0, .5, 1
	all := g.NodesIn(R(0, 0, 1, 1))
	if len(all) != 9 {
		t.Fatalf("full-rect NodesIn = %d nodes, want 9", len(all))
	}
	corner := g.NodesIn(Rect{0.4, 0.4, 1.1, 1.1})
	if len(corner) != 4 {
		t.Fatalf("corner NodesIn = %d nodes, want 4", len(corner))
	}
	// A sliver narrower than a cell still yields the nearest node.
	sliver := g.NodesIn(Rect{0.6, 0.6, 0.65, 0.65})
	if len(sliver) != 1 {
		t.Fatalf("sliver NodesIn = %d nodes, want 1", len(sliver))
	}
	if sliver[0] != g.Index(1, 1) {
		t.Errorf("sliver node = %d, want center node %d", sliver[0], g.Index(1, 1))
	}
	if got := g.NodesIn(Rect{5, 5, 6, 6}); got != nil {
		t.Errorf("outside NodesIn = %v, want nil", got)
	}
}

func TestGridNearestInverseOfPos(t *testing.T) {
	g := MustGrid(R(-1, 2, 3.3, 2.2), 0.2)
	f := func(iRaw, jRaw uint16) bool {
		i := int(iRaw) % g.NX
		j := int(jRaw) % g.NY
		gi, gj := g.Nearest(g.Pos(i, j))
		return gi == i && gj == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridNodesInMatchesBruteForce(t *testing.T) {
	g := MustGrid(R(0, 0, 2, 1.4), 0.2)
	f := func(x0, y0, w, h float64) bool {
		r := R(math.Mod(math.Abs(x0), 2), math.Mod(math.Abs(y0), 1.4),
			math.Mod(math.Abs(w), 2)+0.05, math.Mod(math.Abs(h), 1.4)+0.05)
		got := g.NodesIn(r)
		want := map[int]bool{}
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if r.ContainsClosed(g.Pos(i, j)) {
					want[g.Index(i, j)] = true
				}
			}
		}
		if len(want) == 0 {
			// Sliver fallback: accept a single nearest node.
			return len(got) <= 1
		}
		if len(got) != len(want) {
			return false
		}
		for _, idx := range got {
			if !want[idx] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
