// Package rmesh builds the resistive-mesh (R-Mesh) model of a complete 3D
// DRAM power-delivery network from a pdn.Spec: one mesh per PDN metal layer
// per die, via carpets between a die's layers, TSV/bump/F2F/RDL/bond-wire
// connections between dies and to the package supply, and current loads
// rasterized from power maps.
//
// The paper builds the same model for VDD only and solves it with HSPICE;
// here the model is a sparse SPD conductance system solved by
// internal/solve. The ground net is complementary (paper §2.2) and is not
// modelled separately.
package rmesh

import (
	"fmt"

	"pdn3d/internal/geom"
	"pdn3d/internal/tech"
)

// Die identifiers for non-DRAM layers.
const (
	// DieLogic marks layers of the host logic die.
	DieLogic = -1
	// DieInterfaceRDL marks the single interface RDL between supply and
	// the bottom DRAM die.
	DieInterfaceRDL = -2
)

// Layer is one mesh layer: a metal plane of a die (or an RDL) discretized
// on a uniform grid.
type Layer struct {
	// Key is a unique human-readable identifier like "dram0/M2",
	// "logic/M6", "rdl/if", "dram2/RDL".
	Key string
	// Die is the owning die: a DRAM index (0 = bottom), DieLogic, or
	// DieInterfaceRDL.
	Die int
	// Name is the metal layer name within the die.
	Name string
	// Grid is the spatial discretization.
	Grid geom.Grid
	// Offset is the global index of the layer's node (0,0).
	Offset int
	// Dir is the preferred routing direction.
	Dir tech.Direction
	// REff is the effective per-square resistance of the layer's VDD PDN:
	// sheet resistance divided by the area usage.
	REff float64
	// IsLoad marks the layer that receives the die's current loads.
	IsLoad bool
}

// Node returns the global node index of grid coordinates (i, j).
func (l *Layer) Node(i, j int) int { return l.Offset + l.Grid.Index(i, j) }

// NodeAt returns the global node index nearest to point p.
func (l *Layer) NodeAt(p geom.Point) int { return l.Offset + l.Grid.NearestIndex(p) }

// Contains reports whether global node index n belongs to this layer.
func (l *Layer) Contains(n int) bool {
	return n >= l.Offset && n < l.Offset+l.Grid.N()
}

func (l *Layer) String() string {
	return fmt.Sprintf("%s[%dx%d @%d]", l.Key, l.Grid.NX, l.Grid.NY, l.Offset)
}
