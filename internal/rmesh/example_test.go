package rmesh_test

import (
	"fmt"
	"log"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/pdn"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/tech"
)

// A value-only design sweep freezes the mesh shape once and stamps each
// point's conductances over it: BuildTopology pays the geometry and
// symbolic work, and NewModel mints a solvable model for every spec that
// shares the topology key, its values stamped straight into a fresh
// matrix over the frozen pattern.
func ExampleTopology_NewModel() {
	fp, err := floorplan.DDR3Die(floorplan.DefaultDDR3())
	if err != nil {
		log.Fatal(err)
	}
	spec := &pdn.Spec{
		Name:      "example",
		NumDRAM:   4,
		DRAM:      fp,
		DRAMTech:  tech.DRAM20(1.5),
		Usage:     map[string]float64{"M2": 0.10, "M3": 0.20},
		Bonding:   pdn.F2B,
		TSVStyle:  pdn.EdgeTSV,
		TSVCount:  33,
		MeshPitch: 1.0,
	}

	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		log.Fatal(err)
	}
	base, err := topo.NewModel(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Sweep point: same layers and TSVs, doubled metal usage. The shape is
	// unchanged, so the frozen pattern is reused and only the values are
	// stamped.
	point := spec.Clone()
	point.Usage = map[string]float64{"M2": 0.20, "M3": 0.40}
	m, err := topo.NewModel(point)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("nodes unchanged:", m.N() == topo.N())
	fmt.Println("entries unchanged:", m.Matrix.NNZ() == topo.NNZ())
	fmt.Println("conductances raised:", m.Matrix.Val[0] > base.Matrix.Val[0])
	// Output:
	// nodes unchanged: true
	// entries unchanged: true
	// conductances raised: true
}
