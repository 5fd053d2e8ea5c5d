package irdrop

import (
	"fmt"
	"math"
	"time"

	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
)

// Validation compares the production R-Mesh against a golden reference, in
// the spirit of the paper's Figure 4 (R-Mesh vs. Cadence EPS): the
// reference uses a 2x-refined mesh — playing the role of EPS's
// extraction-level spatial resolution — solved to tight tolerance.
type Validation struct {
	// CoarseIR / FineIR are the max IR drops (V) of the two models.
	CoarseIR, FineIR float64
	// ErrPct is the relative max-IR error of the coarse model in percent.
	ErrPct float64
	// CoarseTime / FineTime are wall-clock solve+build times.
	CoarseTime, FineTime time.Duration
	// Speedup is FineTime / CoarseTime.
	Speedup float64
	// CoarseNodes / FineNodes are the model sizes.
	CoarseNodes, FineNodes int
}

// Validate runs the production model and the refined-mesh reference on the
// same design, state and activity, and reports accuracy and speedup.
func Validate(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel,
	state memstate.State, io float64) (*Validation, error) {

	run := func(s *pdn.Spec) (float64, time.Duration, int, error) {
		//pdnlint:ignore walltime the validation harness measures speedup on purpose; timing is reported beside accuracy, never folded into results
		start := time.Now()
		a, err := New(s, dramPower, logicPower)
		if err != nil {
			return 0, 0, 0, err
		}
		r, err := a.Analyze(state, io)
		if err != nil {
			return 0, 0, 0, err
		}
		return r.MaxIR, time.Since(start), a.Model.N(), nil
	}

	coarseIR, coarseT, coarseN, err := run(spec)
	if err != nil {
		return nil, fmt.Errorf("irdrop: coarse model: %w", err)
	}
	fine := spec.Clone()
	fine.Name = spec.Name + "/ref"
	fine.MeshPitch = spec.EffMeshPitch() / 2
	fineIR, fineT, fineN, err := run(fine)
	if err != nil {
		return nil, fmt.Errorf("irdrop: reference model: %w", err)
	}

	v := &Validation{
		CoarseIR: coarseIR, FineIR: fineIR,
		CoarseTime: coarseT, FineTime: fineT,
		CoarseNodes: coarseN, FineNodes: fineN,
	}
	if fineIR != 0 {
		v.ErrPct = math.Abs(coarseIR-fineIR) / fineIR * 100
	}
	if coarseT > 0 {
		v.Speedup = float64(fineT) / float64(coarseT)
	}
	return v, nil
}

// SingleDie2D derives the paper's "2D DDR3" validation design from a stack
// spec: one die, same floorplan and PDN options (§2.2 generates a 2D DDR3
// design with the same CAD method for the EPS comparison).
func SingleDie2D(spec *pdn.Spec) *pdn.Spec {
	s := spec.Clone()
	s.Name = spec.Name + "/2d"
	s.NumDRAM = 1
	s.OnLogic = false
	s.Logic = nil
	s.LogicTech = nil
	s.LogicUsage = nil
	s.DedicatedTSV = false
	s.Bonding = pdn.F2B
	s.WireBond = false
	return s
}
