package rmesh

import (
	"fmt"

	"pdn3d/internal/geom"
	"pdn3d/internal/obs"
	"pdn3d/internal/par"
	"pdn3d/internal/pdn"
	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
	"pdn3d/internal/speckey"
	"pdn3d/internal/tech"
)

// Model is the assembled R-Mesh of one design: the conductance matrix with
// the ideal-supply node folded in, plus the bookkeeping to attach loads and
// interpret the solution. A Model is immutable once built and keeps only
// what it solves with — not the stamp stream or the Topology it was built
// through.
type Model struct {
	// Spec is the design the mesh was built from.
	Spec *pdn.Spec
	// Layers lists all mesh layers in assembly order.
	Layers []*Layer
	// Matrix is the folded conductance matrix (SPD).
	Matrix *sparse.CSR
	// VDD is the supply voltage.
	VDD float64
	// Ties lists every connection to the ideal supply (node, conductance).
	Ties []Tie
	// Links lists the named vertical/packaging branches (TSVs, B2B
	// connections, landings, bond wires) for current-crowding analysis.
	Links []Link
	// Resistors counts the stamped two-terminal resistors (diagnostics;
	// the paper quotes R-Mesh resistor-count reduction vs. extraction).
	Resistors int

	n         int
	byKey     map[string]*Layer
	dramLoad  []*Layer // load layer per DRAM die
	logicLoad *Layer   // nil when off-chip

	// solvers caches one Solver per method so per-matrix setup
	// (IC(0) factorization or AMG hierarchy) happens exactly once per
	// model, even when many goroutines request it concurrently. A model's
	// matrix never changes once built, so no cached solver goes stale.
	solvers par.Cache[solve.Solver]

	// obs, when non-nil, receives mesh and solver metrics (see BuildObs).
	obs *obs.Registry
}

// Tie is a conductance from a mesh node to the ideal package supply.
type Tie struct {
	Node int
	G    float64
}

// LinkKind classifies a named branch for current-crowding analysis
// (the paper's §3.2 and its current-crowding reference model TSV-level
// current imbalance).
type LinkKind uint8

const (
	// LinkTSV is a PG TSV between stacked dies (F2B interfaces).
	LinkTSV LinkKind = iota
	// LinkB2B is a back-to-back connection between F2F pairs.
	LinkB2B
	// LinkLanding is a supply-entry branch at the stack bottom
	// (package ball or logic-die link, including dedicated TSVs).
	LinkLanding
	// LinkWire is a backside bond wire.
	LinkWire
	// LinkRDL is an RDL attachment branch.
	LinkRDL
)

func (k LinkKind) String() string {
	switch k {
	case LinkTSV:
		return "TSV"
	case LinkB2B:
		return "B2B"
	case LinkLanding:
		return "landing"
	case LinkWire:
		return "wire"
	case LinkRDL:
		return "RDL"
	default:
		return "link"
	}
}

// Link is one named branch. N2 < 0 marks a branch to the ideal supply.
type Link struct {
	Kind LinkKind
	N1   int
	N2   int
	G    float64
}

// Current returns the branch's DC current in amps given the node voltage
// vector (the ideal-supply side sits at VDD).
func (l Link) Current(v []float64, vdd float64) float64 {
	v2 := vdd
	if l.N2 >= 0 {
		v2 = v[l.N2]
	}
	d := v[l.N1] - v2
	if d < 0 {
		d = -d
	}
	return l.G * d
}

// stitchFrac is the fraction of a layer's conductance granted orthogonal to
// its preferred routing direction (strap stitching and PG ring fingers).
const stitchFrac = 0.04

// ringWidth is the solid-metal PG ring width at the die boundary in mm.
const ringWidth = 0.10

// misalignSpreadW is the effective current-spreading width (mm) of the
// lateral detour a misaligned TSV's current takes through the logic die's
// local metal to the nearest C4 (paper §3.2).
const misalignSpreadW = 1.1

// N returns the node count.
func (m *Model) N() int { return m.n }

// Layer returns the layer with the given key.
func (m *Model) Layer(key string) (*Layer, bool) {
	l, ok := m.byKey[key]
	return l, ok
}

// DRAMLoadLayer returns the load layer of DRAM die d (0-based from the
// stack bottom).
func (m *Model) DRAMLoadLayer(d int) (*Layer, error) {
	if d < 0 || d >= len(m.dramLoad) {
		return nil, fmt.Errorf("rmesh: die %d out of range (%d dies)", d, len(m.dramLoad))
	}
	return m.dramLoad[d], nil
}

// LogicLoadLayer returns the logic die's load layer, or nil off-chip.
func (m *Model) LogicLoadLayer() *Layer { return m.logicLoad }

// nodeBounds is the fixed bucket layout for per-model node counts,
// spanning smoke-pitch meshes through full-fidelity stacks.
var nodeBounds = []float64{1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6}

// Build assembles the R-Mesh for the given design.
func Build(spec *pdn.Spec) (*Model, error) { return BuildObs(spec, nil) }

// BuildObs is Build with instrumentation: build and stamp phase timing,
// model/node/resistor counts under "rmesh.*", and solver-cache hit/miss
// counters on the model's per-matrix solver cache. A nil registry
// disables instrumentation; the mesh built is identical either way.
func BuildObs(spec *pdn.Spec, reg *obs.Registry) (*Model, error) {
	_, m, err := buildBoth(spec, reg)
	return m, err
}

// MaxNodes bounds the node count of one mesh. A finer pitch asks for
// quadratically more nodes (a 1 µm pitch on a DRAM die would be ~10¹³ per
// layer), so the bound is checked from the grid dimensions before the
// build allocates anything. It sits far above every design the paper
// analyzes: the finest one benchmarked (ddr3-off at 0.07 mm) has 76,048.
const MaxNodes = 2_000_000

// SizeError reports a mesh whose node count exceeds MaxNodes.
type SizeError struct {
	// Pitch is the mesh pitch in mm.
	Pitch float64
	// Nodes is a lower bound on the nodes the mesh would need: the count
	// up to the first layer that crosses MaxNodes.
	Nodes float64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("rmesh: a mesh at pitch %g mm needs at least %.3g nodes, above the limit of %d", e.Pitch, e.Nodes, MaxNodes)
}

// CheckSize returns spec's validation error, or a *SizeError when its mesh
// would exceed MaxNodes, without building anything.
func CheckSize(spec *pdn.Spec) error {
	_, err := layout(spec, nil)
	return err
}

// layout validates spec and lays out the model's layers — grids, node
// numbering, load layers — allocating nothing that grows with the mesh,
// so a mesh above MaxNodes fails here with a *SizeError.
func layout(spec *pdn.Spec, reg *obs.Registry) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Spec:  spec,
		VDD:   spec.DRAMTech.VDD,
		byKey: map[string]*Layer{},
		obs:   reg,
	}
	m.solvers.Hits = reg.Counter("rmesh.solver_cache.hits")
	m.solvers.Misses = reg.Counter("rmesh.solver_cache.misses")
	pitch := spec.EffMeshPitch()

	addLayer := func(key string, die int, name string, outline geom.Rect, dir tech.Direction, isLoad bool) (*Layer, error) {
		nx, ny := geom.Dims(outline, pitch)
		if nodes := float64(m.n) + nx*ny; nodes > MaxNodes {
			return nil, &SizeError{Pitch: pitch, Nodes: nodes}
		}
		grid, err := geom.NewGrid(outline, pitch)
		if err != nil {
			return nil, fmt.Errorf("rmesh: layer %s: %w", key, err)
		}
		l := &Layer{
			Key: key, Die: die, Name: name, Grid: grid,
			Offset: m.n, Dir: dir, IsLoad: isLoad,
		}
		if err := m.applyREff(l); err != nil {
			return nil, err
		}
		m.n += grid.N()
		m.Layers = append(m.Layers, l)
		m.byKey[key] = l
		return l, nil
	}

	// --- Logic die layers ---
	if spec.OnLogic {
		for i, name := range orderedLayers(spec.LogicTech) {
			u := spec.LogicUsage[name]
			if u == 0 {
				continue
			}
			ml, err := spec.LogicTech.Layer(name)
			if err != nil {
				return nil, err
			}
			l, err := addLayer("logic/"+name, DieLogic, name, spec.Logic.Outline, ml.Dir, i == 0)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				m.logicLoad = l
			}
		}
		if m.logicLoad == nil {
			return nil, fmt.Errorf("rmesh: logic die has no load layer")
		}
	}

	// --- Interface RDL ---
	if spec.RDL == pdn.RDLInterface {
		rdl := spec.DRAMTech.RDL
		if _, err := addLayer("rdl/if", DieInterfaceRDL, rdl.Name, spec.DRAM.Outline, rdl.Dir, false); err != nil {
			return nil, err
		}
	}

	// --- DRAM dies ---
	m.dramLoad = make([]*Layer, spec.NumDRAM)
	for d := 0; d < spec.NumDRAM; d++ {
		for i, name := range orderedLayers(spec.DRAMTech) {
			u := spec.Usage[name]
			if u == 0 {
				continue
			}
			ml, err := spec.DRAMTech.Layer(name)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("dram%d/%s", d, name)
			l, err := addLayer(key, d, name, spec.DRAM.Outline, ml.Dir, i == 0)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				m.dramLoad[d] = l
			}
		}
		if m.dramLoad[d] == nil {
			return nil, fmt.Errorf("rmesh: DRAM die %d has no load layer", d)
		}
		if spec.RDL == pdn.RDLAll {
			rdl := spec.DRAMTech.RDL
			key := fmt.Sprintf("dram%d/RDL", d)
			if _, err := addLayer(key, d, rdl.Name, spec.DRAM.Outline, rdl.Dir, false); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// buildBoth runs the full two-phase build in one pass: geometry (layer
// grids and node numbering), the symbolic freeze (CSR pattern), and the
// numeric stamp (conductance values), returning the frozen Topology and
// the first Model over it. Compress and Freeze+Scatter merge duplicate
// stamps in the same order, so the matrix is bit-identical to what the
// one-shot pre-split Build produced.
func buildBoth(spec *pdn.Spec, reg *obs.Registry) (*Topology, *Model, error) {
	defer reg.Timer("rmesh.build_time").Start()()
	m, err := layout(spec, reg)
	if err != nil {
		return nil, nil, err
	}

	// --- Stamp everything ---
	// A counting pass sizes the builder exactly, so the stamp arrays are
	// allocated once instead of doubling through the stream.
	stopStamp := reg.Timer("rmesh.stamp_time").Start()
	var count stampCounter
	if err := m.stamp(&count); err != nil {
		stopStamp()
		return nil, nil, err
	}
	b := sparse.NewBuilder(m.n)
	b.Grow(count.n)
	if err := m.stamp(b); err != nil {
		stopStamp()
		return nil, nil, err
	}
	stopFreeze := reg.Timer("rmesh.freeze_time").Start()
	pat := b.Freeze()
	stopFreeze()
	m.Matrix = pat.NewCSR()
	pat.Scatter(m.Matrix.Val, b.RawVals())
	stopStamp()
	if err := m.checkTied(); err != nil {
		return nil, nil, err
	}
	reg.Counter("rmesh.builds").Add(1)
	reg.Counter("rmesh.nodes_total").Add(int64(m.n))
	reg.Counter("rmesh.resistors_total").Add(int64(m.Resistors))
	reg.Histogram("rmesh.nodes", nodeBounds).Observe(float64(m.n))

	t := &Topology{
		key:       speckey.Topology(spec),
		pattern:   pat,
		n:         m.n,
		layers:    cloneLayers(m.Layers),
		logicLoad: -1,
	}
	t.dramLoad = make([]int, len(m.dramLoad))
	for i := range m.Layers {
		for d, dl := range m.dramLoad {
			if m.Layers[i] == dl {
				t.dramLoad[d] = i
			}
		}
		if m.Layers[i] == m.logicLoad && m.logicLoad != nil {
			t.logicLoad = i
		}
	}
	return t, m, nil
}

// FloatingError reports mesh nodes with no conductance path to a supply
// tie. Such a system is singular: an iterative solve would leave the
// island at 0 V and report the whole VDD as its IR drop, so the build
// refuses the design instead.
type FloatingError struct {
	// Nodes is the number of nodes no tie reaches.
	Nodes int
	// Layer is the key of the layer holding the first such node.
	Layer string
}

func (e *FloatingError) Error() string {
	return fmt.Sprintf("rmesh: %d nodes have no path to a supply tie (first in layer %s)", e.Nodes, e.Layer)
}

// checkTied walks the matrix graph from every tie node and returns a
// *FloatingError when a node is left unreached. It is O(n + nnz) and runs
// once per topology: a model stamped over it keeps the pattern, and with
// it every path.
func (m *Model) checkTied() error {
	a := m.Matrix
	reached := make([]bool, a.N)
	stack := make([]int32, 0, len(m.Ties))
	for _, t := range m.Ties {
		if !reached[t.Node] {
			reached[t.Node] = true
			stack = append(stack, int32(t.Node))
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if !reached[j] {
				reached[j] = true
				stack = append(stack, j)
			}
		}
	}
	first, count := -1, 0
	for n, ok := range reached {
		if !ok {
			if first < 0 {
				first = n
			}
			count++
		}
	}
	if count == 0 {
		return nil
	}
	err := &FloatingError{Nodes: count}
	for _, l := range m.Layers {
		if l.Contains(first) {
			err.Layer = l.Key
		}
	}
	return err
}

// orderedLayers returns the PDN layer names of a technology in stack order
// (bottom/device side first). The first returned layer is the load layer.
func orderedLayers(t *tech.Technology) []string {
	names := make([]string, len(t.Layers))
	for i, l := range t.Layers {
		names[i] = l.Name
	}
	return names
}

// stampLayer adds the intra-layer segment and PG-ring conductances.
func (m *Model) stampLayer(b stamper, l *Layer) {
	g := l.Grid
	sx, sy := g.StepX(), g.StepY()
	// Conductance of one segment along x: stripes of total width u*sy
	// per row pitch carry current over length sx. REff = sheetR/u, so
	// g = sy / (REff * sx).
	gAlongX := sy / (l.REff * sx)
	gAlongY := sx / (l.REff * sy)
	var gx, gy float64
	switch l.Dir {
	case tech.Horizontal:
		gx, gy = gAlongX, gAlongY*stitchFrac
	case tech.Vertical:
		gx, gy = gAlongX*stitchFrac, gAlongY
	default: // omni-directional RDL
		gx, gy = gAlongX, gAlongY
	}
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			n := l.Node(i, j)
			if i+1 < g.NX {
				b.AddConductance(n, l.Node(i+1, j), gx)
				m.Resistors++
			}
			if j+1 < g.NY {
				b.AddConductance(n, l.Node(i, j+1), gy)
				m.Resistors++
			}
			if l.Dir == tech.OmniDirectional && i+1 < g.NX && j+1 < g.NY {
				// Non-Manhattan RDL routing: diagonal branches.
				diag := 1 / (l.REff * 1.41421356)
				b.AddConductance(n, l.Node(i+1, j+1), diag)
				b.AddConductance(l.Node(i+1, j), l.Node(i, j+1), diag)
				m.Resistors += 2
			}
		}
	}
	// PG ring: solid metal of ringWidth around the boundary, in parallel
	// with the boundary segments. REff*u restores the solid sheet R... the
	// ring is drawn in solid metal, so use sheetR = REff * usage; the
	// usage is unknown here, but REff already folds it in. Approximate the
	// ring with the layer's solid sheet resistance by scaling out a
	// nominal usage is overkill — stamp the ring with REff directly,
	// which under-promises the ring and keeps results conservative.
	gRingX := ringWidth / (l.REff * sx)
	gRingY := ringWidth / (l.REff * sy)
	for i := 0; i+1 < g.NX; i++ {
		b.AddConductance(l.Node(i, 0), l.Node(i+1, 0), gRingX)
		b.AddConductance(l.Node(i, g.NY-1), l.Node(i+1, g.NY-1), gRingX)
		m.Resistors += 2
	}
	for j := 0; j+1 < g.NY; j++ {
		b.AddConductance(l.Node(0, j), l.Node(0, j+1), gRingY)
		b.AddConductance(l.Node(g.NX-1, j), l.Node(g.NX-1, j+1), gRingY)
		m.Resistors += 2
	}
}

// stampVias connects the PDN layers of each die with via arrays at every
// grid node.
func (m *Model) stampVias(b stamper) {
	for i := 0; i+1 < len(m.Layers); i++ {
		lo, hi := m.Layers[i], m.Layers[i+1]
		if lo.Die != hi.Die || lo.Die == DieInterfaceRDL {
			continue
		}
		if hi.Name == m.rdlName() && lo.Die >= 0 {
			continue // die-to-backside-RDL coupling is via TSVs, not vias
		}
		viaR := m.viaRFor(lo.Die)
		g := 1 / viaR
		// Same outline and pitch, so grids are congruent.
		for n := 0; n < lo.Grid.N(); n++ {
			b.AddConductance(lo.Offset+n, hi.Offset+n, g)
			m.Resistors++
		}
	}
}

func (m *Model) rdlName() string { return m.Spec.DRAMTech.RDL.Name }

func (m *Model) viaRFor(die int) float64 {
	if die == DieLogic {
		return m.Spec.LogicTech.ViaR
	}
	return m.Spec.DRAMTech.ViaR
}
