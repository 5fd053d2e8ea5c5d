package rmesh

import (
	"context"
	"fmt"
	"math"
	"slices"

	"pdn3d/internal/powermap"
	"pdn3d/internal/solve"
)

// BaseRHS returns the right-hand side of the folded nodal system with no
// loads attached: every supply tie contributes g·VDD at its node.
func (m *Model) BaseRHS() []float64 {
	rhs := make([]float64, m.n)
	for _, t := range m.Ties {
		rhs[t.Node] += t.G * m.VDD
	}
	return rhs
}

// AddDRAMLoads rasterizes a DRAM die's power loads onto its load layer:
// each load draws P/VDD milliamps spread uniformly over the mesh nodes its
// rectangle covers.
func (m *Model) AddDRAMLoads(rhs []float64, die int, loads []powermap.Load) error {
	l, err := m.DRAMLoadLayer(die)
	if err != nil {
		return err
	}
	return addLoads(rhs, l, loads, m.VDD)
}

// AddLogicLoads rasterizes the logic die's loads onto its load layer.
func (m *Model) AddLogicLoads(rhs []float64, loads []powermap.Load) error {
	l := m.LogicLoadLayer()
	if l == nil {
		return fmt.Errorf("rmesh: design has no logic die")
	}
	return addLoads(rhs, l, loads, m.VDD)
}

func addLoads(rhs []float64, l *Layer, loads []powermap.Load, vdd float64) error {
	for _, ld := range loads {
		if ld.P == 0 {
			continue
		}
		if ld.P < 0 {
			return fmt.Errorf("rmesh: negative load %g mW at %v", ld.P, ld.Rect)
		}
		nodes := l.Grid.NodesIn(ld.Rect)
		if len(nodes) == 0 {
			return fmt.Errorf("rmesh: load rect %v covers no nodes of layer %s", ld.Rect, l.Key)
		}
		// Loads are in mW; the nodal system is SI (V, A, S), so convert.
		iPer := ld.P / 1000 / vdd / float64(len(nodes))
		for _, n := range nodes {
			rhs[l.Offset+n] -= iPer
		}
	}
	return nil
}

// Solver returns the model's solver for the method named in opt, building
// it on first use; an empty method is resolved by solve.MethodFor from the
// mesh's node count, so it shares its cache entry with the method it
// names. Construction is deduplicated: when many goroutines request the
// same method concurrently, exactly one set-up runs and the rest share
// it.
func (m *Model) Solver(opt solve.Options) (solve.Solver, error) {
	opt.Method = solve.MethodFor(opt.Method, m.n)
	if opt.Obs == nil {
		opt.Obs = m.obs // an instrumented model instruments its solvers
	}
	return m.solvers.Do(context.TODO(), opt.Method, nil, func() (solve.Solver, error) {
		return solve.New(m.Matrix, opt)
	})
}

// Solve runs the selected solver on the assembled system and returns node
// voltages; rhs is left as it was. It is SolveCols' one-column case. The
// per-matrix setup (IC(0) factorization or AMG hierarchy) is built once
// per method and shared across right-hand sides and goroutines.
func (m *Model) Solve(rhs []float64, opt solve.Options) ([]float64, solve.CGStats, error) {
	cols := []solve.Column{{B: slices.Clone(rhs), Opt: opt.CGOptions}}
	if err := m.SolveCols(cols, opt); err != nil {
		return nil, solve.CGStats{}, err
	}
	return cols[0].X, cols[0].Stats, cols[0].Err
}

// SolveCols solves the assembled system for every column in lockstep
// (solve.Solver.SolveCols) with the solver opt selects; each column
// carries its own CGOptions, and opt's are not used. Each column's B is
// consumed, and its X, Stats and Err are what Solve would return for it.
// The returned error is the solver set-up's alone. Every column counts as
// one solve under rmesh.solves.
func (m *Model) SolveCols(cols []solve.Column, opt solve.Options) error {
	defer m.obs.Timer("rmesh.solve_time").Start()()
	s, err := m.Solver(opt)
	if err != nil {
		return err
	}
	m.obs.Counter("rmesh.solves").Add(int64(len(cols)))
	s.SolveCols(cols)
	return nil
}

// Balance returns the relative Kirchhoff current-balance error of the
// IR-drop vector ir against load, the current in amps the right-hand
// side's loads draw: |Σ_t g_t·ir_t − load| / load, where the sum is the
// current the supply ties deliver (g_t·(VDD − v_t)). It serves both
// spaces: a voltage-space answer passes IRDrop(v), an IR-space response
// its own solution. An exact solution balances to rounding, so the value
// measures the solve, not the physics. It is 0 when load is not positive.
func (m *Model) Balance(ir []float64, load float64) float64 {
	if load <= 0 {
		return 0
	}
	var tie float64
	for _, t := range m.Ties {
		tie += t.G * ir[t.Node]
	}
	return math.Abs(tie-load) / load
}

// IRDrop converts node voltages to IR drops (VDD − v).
func (m *Model) IRDrop(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = m.VDD - x
	}
	return out
}

// LayerMaxIR returns the maximum IR drop over one layer's nodes.
func (m *Model) LayerMaxIR(ir []float64, l *Layer) float64 {
	var mx float64
	for n := l.Offset; n < l.Offset+l.Grid.N(); n++ {
		if ir[n] > mx {
			mx = ir[n]
		}
	}
	return mx
}

// SumMaxIR returns the maximum IR drop over the DRAM dies' nodes of the
// sum of the given IR-drop vectors, each node's terms added in order: the
// largest DieMaxIR of the summed vector, without materializing it.
func (m *Model) SumMaxIR(terms [][]float64) float64 {
	var mx float64
	for _, l := range m.Layers {
		if l.Die < 0 {
			continue
		}
		for n := l.Offset; n < l.Offset+l.Grid.N(); n++ {
			s := terms[0][n]
			for _, t := range terms[1:] {
				s += t[n]
			}
			if s > mx {
				mx = s
			}
		}
	}
	return mx
}

// DieMaxIR returns the maximum IR drop over all layers of DRAM die d.
func (m *Model) DieMaxIR(ir []float64, d int) float64 {
	var mx float64
	for _, l := range m.Layers {
		if l.Die != d {
			continue
		}
		if v := m.LayerMaxIR(ir, l); v > mx {
			mx = v
		}
	}
	return mx
}
