package rmesh

// Two-phase build: a Topology freezes everything about a mesh that does
// not depend on the metal-usage magnitudes — node numbering, layer grids,
// via/link structure, and the symbolic CSR pattern — so a value-only
// sweep (the co-optimization workload) pays the geometry and the
// O(nnz log nnz) symbolic sort once and then restamps conductance values
// in place per point. The hard contract: a restamped model is
// bit-identical to one built from scratch for the same spec, because the
// restamp replays the exact stamp stream of the full build and the
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
	// stamps is the raw stamp-stream length the pattern was frozen from;
	// every restamp must reproduce exactly this many stamps.
	stamps int
	// layers holds the canonical layer set (geometry only; the REff each
	// model carries is recomputed from its own spec).
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

// NewModelObs is NewModel with instrumentation: the restamp reports under
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
		topo:   t,
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
	m.Matrix = t.pattern.NewCSR()
	m.stampBuf = make([]float64, 0, t.stamps)
	if err := m.restamp(); err != nil {
		return nil, err
	}
	return m, nil
}

// Topology returns the frozen shape the model was built over.
func (m *Model) Topology() *Topology { return m.topo }

// Restamp rewrites the model's conductance values in place for a new
// value-compatible spec: same topology key, different metal-usage
// magnitudes. No matrix memory is allocated — the CSR value array, the
// stamp buffer, and the link/tie slices are all reused — which is what
// makes a 50-point value sweep cheap. The solver cache is reset (its
// factorizations describe the old values). Restamp must not run
// concurrently with Solve or with other Restamp calls on the same model.
func (m *Model) Restamp(spec *pdn.Spec) error {
	if m.topo == nil {
		return fmt.Errorf("rmesh: model has no frozen topology")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if k := speckey.Topology(spec); k != m.topo.key {
		return fmt.Errorf("rmesh: spec %q is not value-compatible with the model's topology", spec.Name)
	}
	m.Spec = spec
	for _, l := range m.Layers {
		if err := m.applyREff(l); err != nil {
			return err
		}
	}
	return m.restamp()
}

// restamp replays the full stamp stream with the model's current REff
// values through a valsRecorder and scatters it into the preallocated
// matrix. Ties, Links, and Resistors are rebuilt (their conductances
// change with the values), reusing their backing arrays.
func (m *Model) restamp() error {
	defer m.obs.Timer("rmesh.restamp_time").Start()()
	m.Ties = m.Ties[:0]
	m.Links = m.Links[:0]
	m.Resistors = 0
	rec := &valsRecorder{vals: m.stampBuf[:0]}
	for _, l := range m.Layers {
		m.stampLayer(rec, l)
	}
	m.stampVias(rec)
	if err := m.stampConnections(rec); err != nil {
		return err
	}
	if len(rec.vals) != m.topo.stamps {
		return fmt.Errorf("rmesh: restamp emitted %d stamps, topology froze %d (value change altered the mesh shape)",
			len(rec.vals), m.topo.stamps)
	}
	m.stampBuf = rec.vals
	m.topo.pattern.Scatter(m.Matrix.Val, rec.vals)
	m.solvers.Reset()
	m.obs.Counter("rmesh.restamps").Add(1)
	return nil
}

// applyREff recomputes a layer's effective per-square resistance from the
// model's spec, using the same expressions the full build evaluates so
// restamped conductances are bit-identical to freshly built ones.
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

// stamper receives the conductance stamp stream of a build. Two
// implementations: *sparse.Builder records coordinates and values (the
// full build), valsRecorder records values only (the restamp, whose
// coordinates are already frozen in the pattern). Both must see the exact
// same stream for the pattern replay to hold.
type stamper interface {
	AddConductance(i, j int, g float64)
	AddToGround(i int, g float64)
}

// valsRecorder mirrors sparse.Builder's stamping behavior — including its
// skip of zero-valued stamps — while recording only values. Any
// divergence from Builder.Add's emission rule would desynchronize the
// stream from the frozen pattern.
type valsRecorder struct {
	vals []float64
}

func (r *valsRecorder) AddConductance(i, j int, g float64) {
	if g == 0 {
		return
	}
	// Builder.AddConductance stamps (i,i,+g) (j,j,+g) (i,j,-g) (j,i,-g);
	// for nonzero g none of the four is skipped.
	r.vals = append(r.vals, g, g, -g, -g)
}

func (r *valsRecorder) AddToGround(i int, g float64) {
	if g == 0 {
		return
	}
	r.vals = append(r.vals, g)
}
