package rmesh

// Two-phase build: a Topology freezes everything about a mesh that does
// not depend on the metal-usage magnitudes — node numbering, layer grids,
// via/link structure, and the symbolic CSR pattern — so a value-only
// sweep (the co-optimization workload) pays the geometry and the symbolic
// freeze once and then stamps each point's conductance values straight
// into a fresh matrix over the shared pattern. The hard contract: such a
// model is bit-identical to one built from scratch for the same spec,
// because it replays the exact stamp stream of the full build and the
// pattern merges duplicates in the same order Compress does.

import (
	"fmt"

	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/sparse"
	"pdn3d/internal/speckey"
)

// Topology is the immutable shape of an R-Mesh: everything keyed by
// speckey.Topology — layer structure, node numbering, and the frozen CSR
// pattern — but none of the conductance values. One Topology serves every
// spec that differs from its source only in metal-usage magnitudes (the
// value fields of speckey.Values); NewModel stamps such a spec's values
// into a fresh matrix over the shared pattern. A Topology is safe for
// concurrent use.
//
//pdnlint:frozen
type Topology struct {
	key     string
	pattern *sparse.Pattern
	n       int
	// layers holds the canonical layer set (geometry only; the REff each
	// model carries is set from its own spec by applyREff).
	layers    []*Layer
	dramLoad  []int // layer index of each DRAM die's load layer
	logicLoad int   // layer index of the logic load layer, -1 off-chip
}

// Key returns the topology's speckey.Topology fingerprint.
func (t *Topology) Key() string { return t.key }

// N returns the node count.
func (t *Topology) N() int { return t.n }

// NNZ returns the stored-entry count of the frozen matrix pattern.
func (t *Topology) NNZ() int { return t.pattern.NNZ() }

// BuildTopology assembles and freezes the topology of a design. The full
// build runs once (geometry, symbolic sort, numeric stamp); the returned
// Topology then mints value-specific models via NewModel without
// repeating the symbolic work.
func BuildTopology(spec *pdn.Spec) (*Topology, error) { return BuildTopologyObs(spec, nil) }

// BuildTopologyObs is BuildTopology with instrumentation (see BuildObs).
func BuildTopologyObs(spec *pdn.Spec, reg *obs.Registry) (*Topology, error) {
	t, _, err := buildBoth(spec, reg)
	return t, err
}

// NewModel stamps spec's conductance values over the frozen topology and
// returns a fully usable Model — bit-identical to Build(spec), but
// skipping geometry construction and the symbolic sort. spec must share
// the topology's speckey.Topology key (same design shape; only metal
// usage magnitudes may differ).
func (t *Topology) NewModel(spec *pdn.Spec) (*Model, error) { return t.NewModelObs(spec, nil) }

// NewModelObs is NewModel with instrumentation: the stamp reports under
// "rmesh.restamps" / "rmesh.restamp_time" rather than the full-build
// metrics, and the model's solver cache reports as in BuildObs.
func (t *Topology) NewModelObs(spec *pdn.Spec, reg *obs.Registry) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if k := speckey.Topology(spec); k != t.key {
		return nil, fmt.Errorf("rmesh: spec %q has a different topology than this Topology was frozen from", spec.Name)
	}
	m := &Model{
		Spec:   spec,
		VDD:    spec.DRAMTech.VDD,
		Layers: cloneLayers(t.layers),
		byKey:  make(map[string]*Layer, len(t.layers)),
		n:      t.n,
		obs:    reg,
	}
	m.solvers.Hits = reg.Counter("rmesh.solver_cache.hits")
	m.solvers.Misses = reg.Counter("rmesh.solver_cache.misses")
	for _, l := range m.Layers {
		if err := m.applyREff(l); err != nil {
			return nil, err
		}
		m.byKey[l.Key] = l
	}
	m.dramLoad = make([]*Layer, len(t.dramLoad))
	for d, li := range t.dramLoad {
		m.dramLoad[d] = m.Layers[li]
	}
	if t.logicLoad >= 0 {
		m.logicLoad = m.Layers[t.logicLoad]
	}
	if err := m.restamp(t); err != nil {
		return nil, err
	}
	return m, nil
}

// restamp replays the full stamp stream with the model's REff values
// straight into a fresh matrix over t's pattern, each stamp into its
// value slot, and rebuilds Ties, Links and Resistors along the way.
func (m *Model) restamp(t *Topology) error {
	defer m.obs.Timer("rmesh.restamp_time").Start()()
	m.Matrix = t.pattern.NewCSR()
	s := t.pattern.Stamper(m.Matrix.Val)
	if err := m.stamp(s); err != nil {
		return err
	}
	if s.Stamps() != t.pattern.Stamps() {
		return fmt.Errorf("rmesh: restamp emitted %d stamps, topology froze %d (value change altered the mesh shape)",
			s.Stamps(), t.pattern.Stamps())
	}
	m.obs.Counter("rmesh.restamps").Add(1)
	return nil
}

// applyREff sets a layer's effective per-square resistance from the
// model's spec. It is the one REff rule: the full build's layout and
// NewModel both call it, so conductances stamped over a topology are
// bit-identical to freshly built ones by construction.
func (m *Model) applyREff(l *Layer) error {
	spec := m.Spec
	switch {
	case l.Die == DieInterfaceRDL, l.Die >= 0 && l.Name == spec.DRAMTech.RDL.Name:
		rdl := spec.DRAMTech.RDL
		l.REff = rdl.SheetR / rdl.MaxUsage
	case l.Die == DieLogic:
		u := spec.LogicUsage[l.Name]
		if u == 0 {
			return fmt.Errorf("rmesh: logic layer %s has zero usage in the new spec", l.Name)
		}
		ml, err := spec.LogicTech.Layer(l.Name)
		if err != nil {
			return err
		}
		l.REff = ml.SheetR / u
	default:
		u := spec.Usage[l.Name]
		if u == 0 {
			return fmt.Errorf("rmesh: DRAM layer %s has zero usage in the new spec", l.Name)
		}
		ml, err := spec.DRAMTech.Layer(l.Name)
		if err != nil {
			return err
		}
		l.REff = ml.SheetR / u
	}
	return nil
}

// cloneLayers deep-copies a layer set. Layer holds only value fields
// (geom.Grid included), so a struct copy fully detaches each clone.
func cloneLayers(ls []*Layer) []*Layer {
	out := make([]*Layer, len(ls))
	for i, l := range ls {
		c := *l
		out[i] = &c
	}
	return out
}

// stamper receives the conductance stamp stream of a build. Three
// implementations: *sparse.Builder records coordinates and values (the
// full build), *sparse.Stamper adds values straight into a matrix over
// the frozen pattern (NewModel), and stampCounter counts the stamps so
// the full build can size its builder. All must see the exact same stream
// for the pattern replay to hold.
type stamper interface {
	AddConductance(i, j int, g float64)
	AddToGround(i int, g float64)
}

// stamp emits the model's whole stamp stream into s — every layer, the
// vias, then the die and package connections — rebuilding Ties, Links
// and Resistors (reusing their backing arrays) along the way.
func (m *Model) stamp(s stamper) error {
	m.Ties = m.Ties[:0]
	m.Links = m.Links[:0]
	m.Resistors = 0
	for _, l := range m.Layers {
		m.stampLayer(s, l)
	}
	m.stampVias(s)
	return m.stampConnections(s)
}

// stampCounter counts the stamps sparse.Builder would keep from a stream,
// mirroring its skip of zero-valued stamps.
type stampCounter struct {
	n int
}

func (c *stampCounter) AddConductance(i, j int, g float64) {
	if g != 0 {
		c.n += 4
	}
}

func (c *stampCounter) AddToGround(i int, g float64) {
	if g != 0 {
		c.n++
	}
}
