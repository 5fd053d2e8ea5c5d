package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform 2-D grid of nodes covering a rectangular outline.
// Node (i, j) with 0 <= i < NX, 0 <= j < NY sits at
//
//	(Outline.X0 + i*Pitch, Outline.Y0 + j*Pitch)
//
// subject to clamping of the last row/column to the outline boundary when
// the outline size is not an exact multiple of the pitch. The grid is the
// spatial skeleton of every resistive mesh layer.
type Grid struct {
	Outline Rect
	Pitch   float64
	NX, NY  int
}

// NewGrid builds a grid over outline with the given node pitch. The grid
// always includes nodes on all four outline edges; interior spacing is
// uniform and no larger than pitch.
func NewGrid(outline Rect, pitch float64) (Grid, error) {
	if outline.Empty() {
		return Grid{}, fmt.Errorf("geom: grid outline %v is empty", outline)
	}
	if pitch <= 0 {
		return Grid{}, fmt.Errorf("geom: grid pitch %g must be positive", pitch)
	}
	nx, ny := Dims(outline, pitch)
	return Grid{Outline: outline, Pitch: pitch, NX: int(nx), NY: int(ny)}, nil
}

// Dims returns the node counts along x and y of the grid NewGrid builds
// over outline at pitch (at least 2 each). They are floats so a caller can
// bound a grid's size before building it: at a tiny pitch the counts
// overflow an int.
func Dims(outline Rect, pitch float64) (nx, ny float64) {
	return math.Max(2, math.Floor(outline.W()/pitch+0.5)+1), math.Max(2, math.Floor(outline.H()/pitch+0.5)+1)
}

// MustGrid is NewGrid for statically-valid arguments; it panics on error.
func MustGrid(outline Rect, pitch float64) Grid {
	g, err := NewGrid(outline, pitch)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the total node count NX*NY.
func (g Grid) N() int { return g.NX * g.NY }

// StepX returns the actual horizontal node spacing.
func (g Grid) StepX() float64 { return g.Outline.W() / float64(g.NX-1) }

// StepY returns the actual vertical node spacing.
func (g Grid) StepY() float64 { return g.Outline.H() / float64(g.NY-1) }

// Index maps grid coordinates to the linear node index.
func (g Grid) Index(i, j int) int { return j*g.NX + i }

// Coords maps a linear node index back to grid coordinates.
func (g Grid) Coords(idx int) (i, j int) { return idx % g.NX, idx / g.NX }

// Pos returns the physical location of node (i, j).
func (g Grid) Pos(i, j int) Point {
	return Point{
		X: g.Outline.X0 + float64(i)*g.StepX(),
		Y: g.Outline.Y0 + float64(j)*g.StepY(),
	}
}

// Nearest returns the grid coordinates of the node closest to p, clamped to
// the grid bounds.
func (g Grid) Nearest(p Point) (i, j int) {
	i = int((p.X-g.Outline.X0)/g.StepX() + 0.5)
	j = int((p.Y-g.Outline.Y0)/g.StepY() + 0.5)
	i = clamp(i, 0, g.NX-1)
	j = clamp(j, 0, g.NY-1)
	return i, j
}

// NearestIndex returns the linear index of the node closest to p.
func (g Grid) NearestIndex(p Point) int {
	i, j := g.Nearest(p)
	return g.Index(i, j)
}

// NodesIn returns the linear indices of all grid nodes whose position lies
// inside r (closed on all edges). Nodes are returned in row-major order.
func (g Grid) NodesIn(r Rect) []int {
	i0u := ceilDiv(r.X0-g.Outline.X0, g.StepX())
	i1u := floorDiv(r.X1-g.Outline.X0, g.StepX())
	j0u := ceilDiv(r.Y0-g.Outline.Y0, g.StepY())
	j1u := floorDiv(r.Y1-g.Outline.Y0, g.StepY())
	if i1u < 0 || i0u > g.NX-1 || j1u < 0 || j0u > g.NY-1 {
		return nil // rect lies entirely outside the grid
	}
	i0 := clamp(i0u, 0, g.NX-1)
	i1 := clamp(i1u, 0, g.NX-1)
	j0 := clamp(j0u, 0, g.NY-1)
	j1 := clamp(j1u, 0, g.NY-1)
	if i1 < i0 || j1 < j0 {
		// The rect is thinner than a grid cell: fall back to the node
		// nearest the rect center so small blocks still receive load.
		if r.Empty() || !g.Outline.Overlaps(r) {
			return nil
		}
		return []int{g.NearestIndex(r.Center())}
	}
	out := make([]int, 0, (i1-i0+1)*(j1-j0+1))
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			out = append(out, g.Index(i, j))
		}
	}
	return out
}

// EdgeNodes returns the indices of nodes lying on the grid boundary.
func (g Grid) EdgeNodes() []int {
	out := make([]int, 0, 2*g.NX+2*g.NY)
	for i := 0; i < g.NX; i++ {
		out = append(out, g.Index(i, 0), g.Index(i, g.NY-1))
	}
	for j := 1; j < g.NY-1; j++ {
		out = append(out, g.Index(0, j), g.Index(g.NX-1, j))
	}
	return out
}

const gridEps = 1e-9

func ceilDiv(x, step float64) int {
	v := x / step
	n := int(v)
	if v-float64(n) > gridEps {
		n++
	}
	return n
}

func floorDiv(x, step float64) int {
	v := x / step
	n := int(v)
	if float64(n)-v > gridEps {
		n--
	}
	return n
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
