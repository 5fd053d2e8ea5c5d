package rmesh

import (
	"context"
	"fmt"
	"strconv"

	"pdn3d/internal/powermap"
	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
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

// Solver returns the model's solver for the method and worker budget named
// in opt, building it on first use. Construction is deduplicated: when many
// goroutines request the same (method, workers) pair concurrently, exactly
// one factorization runs and the rest share it.
//
// Reordering-aware methods (cg-amg) are built on the RCM-reordered matrix
// and wrapped so callers see the original node ordering: right-hand sides
// and warm-start guesses in, voltages out — all in mesh numbering.
func (m *Model) Solver(opt solve.Options) (solve.Solver, error) {
	method := opt.Method
	if method == "" {
		method = solve.DefaultMethod
	}
	if opt.Obs == nil {
		opt.Obs = m.obs // an instrumented model instruments its solvers
	}
	return m.solvers.Do(context.TODO(), method+"/"+strconv.Itoa(opt.Workers), nil, func() (solve.Solver, error) {
		if solve.UsesReordering(method) {
			inner, err := solve.New(m.reorderedMatrix(), opt)
			if err != nil {
				return nil, err
			}
			return solve.Reordered(inner, m.topo.Perm()), nil
		}
		return solve.New(m.Matrix, opt)
	})
}

// reorderedMatrix materializes the RCM-reordered conductance matrix on
// first use by scattering the current stamp stream through the topology's
// permuted pattern. Later restamps keep it in sync (see restamp).
func (m *Model) reorderedMatrix() *sparse.CSR {
	m.permMu.Lock()
	defer m.permMu.Unlock()
	if m.permMatrix == nil {
		pm := m.topo.permPattern.NewCSR()
		m.topo.permPattern.Scatter(pm.Val, m.stampBuf)
		m.permMatrix = pm
	}
	return m.permMatrix
}

// Solve runs the selected solver on the assembled system and returns node
// voltages. The per-matrix setup (IC(0) factorization or AMG hierarchy) is
// built once per (method, workers) pair and shared across right-hand sides
// and goroutines.
func (m *Model) Solve(rhs []float64, opt solve.Options) ([]float64, solve.CGStats, error) {
	defer m.obs.Timer("rmesh.solve_time").Start()()
	s, err := m.Solver(opt)
	if err != nil {
		return nil, solve.CGStats{}, err
	}
	m.obs.Counter("rmesh.solves").Add(1)
	return s.Solve(rhs, opt.CGOptions)
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
