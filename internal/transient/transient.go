// Package transient extends the DC platform with an RC transient analysis —
// the paper's closing observation that backside bond wires "can directly
// connect to large off-chip decoupling capacitors, which provide better AC
// power integrity" (§4.1) made quantitative.
//
// The model augments the R-Mesh conductance system with on-die node
// capacitance (thin-oxide decap + device loading) and series-RC decap
// branches to the ideal supply, then steps C·dv/dt + G·v = i(t) with
// backward Euler. The stepped system matrix (G + C/Δt + decap companions)
// is SPD, so the same IC(0)-preconditioned CG solves every step; it is
// factored once.
package transient

import (
	"fmt"

	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
)

// Decap is a series-RC decoupling branch from a mesh node to the ideal
// supply: an off-chip capacitor reached through a bond wire or ball.
type Decap struct {
	// Node is the mesh attachment node.
	Node int
	// C is the capacitance in farads.
	C float64
	// R is the series (access) resistance in ohms.
	R float64
}

// Config parameterizes the transient model.
type Config struct {
	// DieCapFPerMM2 is the on-die capacitance density on load layers in
	// farads per mm² (thin-oxide decap fill plus device loading;
	// ~1-5 nF/mm² for a 20nm-class DRAM).
	DieCapFPerMM2 float64
	// Decaps lists explicit decap branches.
	Decaps []Decap
	// TieL is the package loop inductance in henries added in series with
	// every supply landing (C4/ball + plane path; ~0.1-0.5 nH). It is the
	// mechanism that makes local decaps matter: during the first
	// nanoseconds the inductive supply cannot ramp, so charge must come
	// from capacitance. Zero disables it.
	TieL float64
	// WireTieL is the inductance of the bond-wire supply ties (~1 nH/mm of
	// wire). Zero disables it.
	WireTieL float64
	// Dt is the time step in seconds.
	Dt float64
	// Tol is the per-step CG tolerance (0 selects 1e-9).
	Tol float64
}

// DefaultConfig returns plausible constants: 2 nF/mm² die capacitance,
// 0.3 nH package-loop inductance per landing, 0.8 nH per bond wire, and a
// 0.625 ns step (one step per DDR3-1600 data beat pair).
func DefaultConfig() Config {
	return Config{
		DieCapFPerMM2: 2e-9,
		TieL:          0.3e-9,
		WireTieL:      0.8e-9,
		Dt:            0.625e-9,
	}
}

// Sim is a prepared transient simulation on one R-Mesh model.
type Sim struct {
	model *rmesh.Model
	cfg   Config

	// solver runs CG on the stepped matrix G + C/dt + companions.
	solver solve.Solver
	cap    []float64 // per-node capacitance (diagonal C)
	decapG []float64 // companion conductance per decap
	vc     []float64 // decap internal capacitor voltages (state)
	v      []float64 // node voltages (state)

	// Inductive supply ties (companion models): per tie the original DC
	// conductance (removed from the matrix), the transient companion
	// conductance, and the branch-current state.
	indNode []int
	indG0   []float64 // DC tie conductance g = 1/R
	indG    []float64 // companion conductance g' = 1/(R + L/dt)
	indLdt  []float64 // L/dt
	iL      []float64 // branch current state (A)
}

// New builds the stepped system. The simulation starts from the DC
// solution of rhsInit (usually the idle state).
func New(model *rmesh.Model, cfg Config, rhsInit []float64) (*Sim, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("transient: time step %g must be positive", cfg.Dt)
	}
	if cfg.DieCapFPerMM2 < 0 {
		return nil, fmt.Errorf("transient: negative capacitance density")
	}
	if len(rhsInit) != model.N() {
		return nil, fmt.Errorf("transient: rhs length %d != %d nodes", len(rhsInit), model.N())
	}
	s := &Sim{model: model, cfg: cfg, cap: make([]float64, model.N())}

	// On-die capacitance on the load layers, proportional to node area.
	for _, l := range model.Layers {
		if !l.IsLoad {
			continue
		}
		perNode := cfg.DieCapFPerMM2 * l.Grid.StepX() * l.Grid.StepY()
		for n := l.Offset; n < l.Offset+l.Grid.N(); n++ {
			s.cap[n] = perNode
		}
	}

	// Assemble A = G + C/dt + Σ companion conductances.
	b := sparse.NewBuilder(model.N())
	g := model.Matrix
	for i := 0; i < g.N; i++ {
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			b.Add(i, int(g.Col[p]), g.Val[p])
		}
		if s.cap[i] > 0 {
			b.Add(i, i, s.cap[i]/cfg.Dt)
		}
	}

	// Inductive supply ties: swap each tie's DC conductance for its
	// series-RL backward-Euler companion.
	if cfg.TieL > 0 || cfg.WireTieL > 0 {
		if cfg.TieL < 0 || cfg.WireTieL < 0 {
			return nil, fmt.Errorf("transient: negative tie inductance")
		}
		for _, l := range model.Links {
			if l.N2 >= 0 {
				continue // not a supply tie
			}
			var ind float64
			switch l.Kind {
			case rmesh.LinkLanding:
				ind = cfg.TieL
			case rmesh.LinkWire:
				ind = cfg.WireTieL
			default:
				continue
			}
			if ind == 0 {
				continue
			}
			r := 1 / l.G
			gp := 1 / (r + ind/cfg.Dt)
			b.Add(l.N1, l.N1, gp-l.G) // remove DC tie, add companion
			s.indNode = append(s.indNode, l.N1)
			s.indG0 = append(s.indG0, l.G)
			s.indG = append(s.indG, gp)
			s.indLdt = append(s.indLdt, ind/cfg.Dt)
			s.iL = append(s.iL, 0)
		}
	}
	s.decapG = make([]float64, len(cfg.Decaps))
	s.vc = make([]float64, len(cfg.Decaps))
	for k, d := range cfg.Decaps {
		if d.Node < 0 || d.Node >= model.N() {
			return nil, fmt.Errorf("transient: decap %d at node %d out of range", k, d.Node)
		}
		if d.C <= 0 || d.R < 0 {
			return nil, fmt.Errorf("transient: decap %d needs C > 0 and R >= 0", k)
		}
		// Backward-Euler companion of the series R-C branch between the
		// node and the capacitor's internal voltage vc:
		//   i = (v - vc) / (R + dt/C), then vc += i·dt/C.
		s.decapG[k] = 1 / (d.R + cfg.Dt/d.C)
		b.Add(d.Node, d.Node, s.decapG[k])
		s.vc[k] = model.VDD
	}
	// The stepped system is factored once and reused by every Step; one
	// worker runs each step's kernels on the caller's goroutine.
	solver, err := solve.New(b.Compress(), solve.Options{Method: solve.MethodCGIC0, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("transient: preconditioner: %w", err)
	}
	s.solver = solver

	// Initial condition: DC solve of the init state on the original G;
	// inductor currents start at their DC values.
	v0, _, err := model.Solve(rhsInit, solve.Options{CGOptions: solve.CGOptions{Tol: s.tol()}})
	if err != nil {
		return nil, fmt.Errorf("transient: initial DC solve: %w", err)
	}
	s.v = v0
	for k, n := range s.indNode {
		s.iL[k] = s.indG0[k] * (model.VDD - v0[n])
	}
	return s, nil
}

func (s *Sim) tol() float64 {
	if s.cfg.Tol > 0 {
		return s.cfg.Tol
	}
	return 1e-9
}

// V returns the current node-voltage state.
func (s *Sim) V() []float64 { return s.v }

// MaxIR returns the worst DRAM-die IR drop of the current state in volts.
func (s *Sim) MaxIR() float64 {
	ir := s.model.IRDrop(s.v)
	var mx float64
	for d := 0; d < s.model.Spec.NumDRAM; d++ {
		if v := s.model.DieMaxIR(ir, d); v > mx {
			mx = v
		}
	}
	return mx
}

// Step advances one Δt under the load vector rhs (as produced by
// Analyzer.LoadedRHS for the post-transition memory state).
func (s *Sim) Step(rhs []float64) error {
	if len(rhs) != s.model.N() {
		return fmt.Errorf("transient: rhs length %d != %d nodes", len(rhs), s.model.N())
	}
	n := s.model.N()
	b := make([]float64, n)
	copy(b, rhs)
	for i := 0; i < n; i++ {
		if s.cap[i] > 0 {
			b[i] += s.cap[i] / s.cfg.Dt * s.v[i]
		}
	}
	for k, d := range s.cfg.Decaps {
		b[d.Node] += s.decapG[k] * s.vc[k]
	}
	// Inductive ties: the incoming rhs carries the DC tie source g·VDD;
	// swap it for the companion's source g'·(VDD + (L/dt)·iL).
	vdd := s.model.VDD
	for k, node := range s.indNode {
		b[node] += -s.indG0[k]*vdd + s.indG[k]*(vdd+s.indLdt[k]*s.iL[k])
	}
	v, _, err := s.solver.Solve(b, solve.CGOptions{Tol: s.tol(), MaxIter: 20 * n})
	if err != nil {
		return err
	}
	// Update decap internal voltages from the branch currents.
	for k, d := range s.cfg.Decaps {
		i := s.decapG[k] * (v[d.Node] - s.vc[k])
		s.vc[k] += i * s.cfg.Dt / d.C
	}
	// Update inductor branch currents.
	for k, node := range s.indNode {
		s.iL[k] = s.indG[k] * (vdd - v[node] + s.indLdt[k]*s.iL[k])
	}
	s.v = v
	return nil
}

// Run steps the simulation for steps Δt under rhs and returns the worst
// DRAM IR drop after every step.
func (s *Sim) Run(rhs []float64, steps int) ([]float64, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("transient: steps %d must be positive", steps)
	}
	out := make([]float64, steps)
	for k := 0; k < steps; k++ {
		if err := s.Step(rhs); err != nil {
			return nil, err
		}
		out[k] = s.MaxIR()
	}
	return out, nil
}

// WireDecaps builds one decap branch behind every bond-wire tie of a
// wire-bonded design: the off-chip capacitors the paper says the wires can
// reach directly. cEach is the per-wire capacitance, rAccess the access
// resistance (ESR + trace).
func WireDecaps(model *rmesh.Model, cEach, rAccess float64) []Decap {
	var out []Decap
	for _, l := range model.Links {
		if l.Kind != rmesh.LinkWire {
			continue
		}
		out = append(out, Decap{Node: l.N1, C: cEach, R: rAccess + 1/l.G})
	}
	return out
}
