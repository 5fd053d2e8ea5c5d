// Package diff is the differential solver harness: it expands corpus
// entries (internal/bench/gen) into meshes and batters every solver in
// the solve registry against a shared oracle. On small systems the oracle
// is the dense Cholesky factorization; on systems too large to factor
// densely the solvers cross-check each other against the default method.
// Each mesh additionally re-proves the standing bit-exactness claim that
// a matrix stamped over a frozen topology is identical to a full build,
// for the mesh's own spec and for a value-perturbed sibling, and
// round-trips through the SPICE netlist interchange (internal/spice), so a solver regression, a
// stamp regression, or an interchange regression all surface as one
// failing differential report.
package diff

import (
	"bytes"
	"fmt"
	"math"

	"pdn3d/internal/bench/gen"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
	"pdn3d/internal/spice"
)

// DefaultOracleMaxN is the largest system the dense Cholesky oracle
// factorizes; larger meshes fall back to solver cross-checking.
const DefaultOracleMaxN = 2000

// OracleCholesky is the MeshReport/DeckReport Oracle label of the dense
// exact reference (solve.NewCholesky).
const OracleCholesky = "cholesky"

// DefaultTol is the iterative-solver relative-residual target the
// harness solves to. It sits well below OracleRelTol so the comparison
// measures solver agreement, not the convergence threshold.
const DefaultTol = 1e-13

// OracleRelTol is the documented agreement bound: every registry solver
// must match the dense Cholesky oracle within this ∞-norm relative error
// on oracle-sized meshes (see DESIGN.md §5g for the tolerance policy).
const OracleRelTol = 1e-9

// RoundTripVoltTol is the documented netlist round-trip bound: voltages
// of the re-parsed system must match the original mesh's within this
// ∞-norm relative error. It is looser than OracleRelTol because each
// resistance line carries one reciprocal rounding (g → 1/g → text → g′).
const RoundTripVoltTol = 1e-8

// Options tunes a differential check. The zero value is ready to use.
type Options struct {
	// Methods lists the solver methods to check; nil selects every
	// registered method (solve.Methods()).
	Methods []string
	// Tol is the iterative relative-residual target; 0 selects DefaultTol.
	Tol float64
	// OracleMaxN caps the dense-oracle system size; 0 selects
	// DefaultOracleMaxN. Above it the default method is the reference.
	OracleMaxN int
	// SkipRoundTrip disables the SPICE netlist round-trip leg (the fuzz
	// target exercises it separately on a tighter budget).
	SkipRoundTrip bool
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return DefaultTol
}

func (o Options) oracleMaxN() int {
	if o.OracleMaxN > 0 {
		return o.OracleMaxN
	}
	return DefaultOracleMaxN
}

func (o Options) methods() []string {
	if len(o.Methods) > 0 {
		return o.Methods
	}
	return solve.Methods()
}

// Run is one solver execution against the reference solution.
type Run struct {
	// Method is the registry name of the solver.
	Method string `json:"method"`
	// Iterations and Residual are the solver's own convergence story.
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	// RelErr is the ∞-norm relative error against the mesh's reference
	// solution.
	RelErr float64 `json:"rel_err"`
	// CondEst is the CG-Lanczos condition estimate of the preconditioned
	// operator, captured from the solve flight recorder (0 for degenerate
	// trajectories), and Termination is the recorder's exit
	// classification. Both are committed into the convergence snapshot
	// so a conditioning or termination regression diffs like any other
	// column.
	CondEst     float64 `json:"cond_est,omitempty"`
	Termination string  `json:"termination,omitempty"`
}

// RoundTrip reports the SPICE netlist round-trip leg of a mesh check.
type RoundTrip struct {
	// StructEqual reports whether parse(WriteNetlist(m)) reproduced the
	// exact CSR sparsity pattern of the originating matrix.
	StructEqual bool `json:"struct_equal"`
	// MaxValRelDiff is the worst per-entry relative difference between
	// the original and re-parsed matrix values.
	MaxValRelDiff float64 `json:"max_val_rel_diff"`
	// MaxRHSRelDiff is the worst per-entry relative difference between
	// the original and re-parsed right-hand sides.
	MaxRHSRelDiff float64 `json:"max_rhs_rel_diff"`
	// VoltRelErr is the ∞-norm relative error between node voltages of
	// the re-parsed system and the original, solved with the same method.
	VoltRelErr float64 `json:"volt_rel_err"`
}

// MeshReport is the differential outcome for one corpus mesh.
type MeshReport struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	NNZ   int    `json:"nnz"`
	// Oracle names the reference: "cholesky" for the dense exact oracle,
	// "cross:<method>" when the mesh is too large to factor densely.
	Oracle string `json:"oracle"`
	// Runs lists every solver execution, one per method, and its error
	// against the reference.
	Runs []Run `json:"runs"`
	// MaxRelErr is the worst RelErr over Runs.
	MaxRelErr float64 `json:"max_rel_err"`
	// RestampExact reports that a matrix stamped over a frozen topology
	// reproduced the full build bit for bit — both for the mesh's own spec
	// and for a value-perturbed sibling.
	RestampExact bool `json:"restamp_exact"`
	// RoundTrip is the netlist interchange leg (nil when skipped).
	RoundTrip *RoundTrip `json:"round_trip,omitempty"`
}

// Check expands one corpus entry and runs the full differential suite on
// it: every registered solver against the mesh's reference solution,
// restamp-vs-full-build bit equality, and the SPICE round trip.
func Check(s *gen.Spec, opt Options) (*MeshReport, error) {
	inst, err := s.Build()
	if err != nil {
		return nil, err
	}
	m, rhs, err := Assemble(inst)
	if err != nil {
		return nil, err
	}
	rep := &MeshReport{Name: s.Name, Nodes: m.N(), NNZ: m.Matrix.NNZ()}

	rep.RestampExact, err = restampCheck(inst, m)
	if err != nil {
		return nil, err
	}

	// Reference solution: dense Cholesky on oracle-sized systems, the
	// method solve.MethodFor picks for the mesh's size otherwise.
	tol := opt.tol()
	cg := solve.CGOptions{Tol: tol}
	var ref []float64
	if m.N() <= opt.oracleMaxN() {
		rep.Oracle = OracleCholesky
		c, err := solve.NewCholesky(m.Matrix)
		if err == nil {
			ref, err = c.Solve(rhs)
		}
		if err != nil {
			return nil, fmt.Errorf("diff %s: oracle: %w", s.Name, err)
		}
	} else {
		method := solve.MethodFor("", m.N())
		rep.Oracle = "cross:" + method
		ref, _, err = m.Solve(rhs, solve.Options{Method: method, CGOptions: cg})
		if err != nil {
			return nil, fmt.Errorf("diff %s: cross-check reference: %w", s.Name, err)
		}
	}

	// Every checked run records into a harness-local flight-recorder
	// buffer so its condition estimate and termination class land in the
	// report alongside the error columns.
	buf := obs.NewSolveBuffer(1)
	for _, method := range opt.methods() {
		o := cg
		rec := buf.StartSolveRecord()
		o.Rec = rec
		x, stats, err := m.Solve(rhs, solve.Options{Method: method, CGOptions: o})
		rec.Commit()
		if err != nil {
			return nil, fmt.Errorf("diff %s: %s: %w", s.Name, method, err)
		}
		run := Run{
			Method:     method,
			Iterations: stats.Iterations,
			Residual:   stats.Residual,
			RelErr:     RelErr(x, ref),
		}
		if recent, _, _ := buf.Snapshot(); len(recent) > 0 {
			run.CondEst = recent[0].CondEst
			run.Termination = recent[0].Termination
		}
		rep.Runs = append(rep.Runs, run)
		if run.RelErr > rep.MaxRelErr {
			rep.MaxRelErr = run.RelErr
		}
	}

	if !opt.SkipRoundTrip {
		rt, err := roundTrip(m, rhs, opt)
		if err != nil {
			return nil, fmt.Errorf("diff %s: round trip: %w", s.Name, err)
		}
		rep.RoundTrip = rt
	}
	return rep, nil
}

// Assemble expands an instance into its mesh and loaded right-hand side
// (ties plus the instance's memory-state loads).
func Assemble(inst *gen.Instance) (*rmesh.Model, []float64, error) {
	var logicPower *powermap.LogicModel
	if inst.Spec.OnLogic {
		logicPower = inst.Bench.LogicPower
	}
	a, err := irdrop.New(inst.Spec, inst.Bench.DRAMPower, logicPower)
	if err != nil {
		return nil, nil, err
	}
	st, err := memstate.FromCounts(inst.Counts, memstate.WorstCaseEdge(inst.Spec.DRAM.NumBanks))
	if err != nil {
		return nil, nil, err
	}
	rhs, err := a.LoadedRHS(st, inst.IO)
	if err != nil {
		return nil, nil, err
	}
	return a.Model, rhs, nil
}

// restampCheck re-proves the two-phase mesh pipeline's bit-exactness
// claim on this mesh: models stamped over a frozen topology, for the same
// spec and for a value-perturbed sibling, must both reproduce the
// matrices a cold rmesh.Build produces bit for bit.
func restampCheck(inst *gen.Instance, m *rmesh.Model) (bool, error) {
	spec := inst.Spec
	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		return false, err
	}
	same, err := topo.NewModel(spec)
	if err != nil {
		return false, err
	}
	exact := bitsEqual(m.Matrix.Val, same.Matrix.Val)

	// Value-only perturbation: scale every metal usage down 20% (always
	// validates — usages only shrink) without touching the topology key.
	pg := *inst.Gen
	if pg.UsageScale == 0 {
		pg.UsageScale = 1
	}
	pg.UsageScale *= 0.8
	pinst, err := pg.Build()
	if err != nil {
		return false, err
	}
	full, err := rmesh.Build(pinst.Spec)
	if err != nil {
		return false, err
	}
	restamped, err := topo.NewModel(pinst.Spec)
	if err != nil {
		return false, err
	}
	return exact && bitsEqual(full.Matrix.Val, restamped.Matrix.Val), nil
}

// roundTrip writes the mesh as a SPICE deck, re-parses it, and compares
// structure, values, and solved voltages against the original.
func roundTrip(m *rmesh.Model, rhs []float64, opt Options) (*RoundTrip, error) {
	var buf bytes.Buffer
	if err := spice.WriteNetlist(&buf, m, rhs, m.Spec.Name); err != nil {
		return nil, err
	}
	nl, err := spice.Parse(&buf)
	if err != nil {
		return nil, err
	}
	a2, rhs2, err := nl.System()
	if err != nil {
		return nil, err
	}
	rt := &RoundTrip{StructEqual: sparse.StructureEqual(m.Matrix, a2)}
	if !rt.StructEqual {
		return rt, nil // value comparison is meaningless across structures
	}
	for i := range m.Matrix.Val {
		if d := relDiff(m.Matrix.Val[i], a2.Val[i]); d > rt.MaxValRelDiff {
			rt.MaxValRelDiff = d
		}
	}
	for i := range rhs {
		if d := relDiff(rhs[i], rhs2[i]); d > rt.MaxRHSRelDiff {
			rt.MaxRHSRelDiff = d
		}
	}
	cg := solve.CGOptions{Tol: opt.tol()}
	x1, _, err := m.Solve(rhs, solve.Options{CGOptions: cg})
	if err != nil {
		return nil, err
	}
	s2, err := solve.New(a2, solve.Options{})
	if err != nil {
		return nil, err
	}
	x2, _, err := s2.Solve(rhs2, cg)
	if err != nil {
		return nil, err
	}
	rt.VoltRelErr = RelErr(x2, x1)
	return rt, nil
}

// RelErr is the harness's error metric: the ∞-norm of (x − ref) relative
// to the ∞-norm of ref. Zero reference with nonzero x reports +Inf.
func RelErr(x, ref []float64) float64 {
	var num, den float64
	for i := range ref {
		if d := math.Abs(x[i] - ref[i]); d > num {
			num = d
		}
		if a := math.Abs(ref[i]); a > den {
			den = a
		}
	}
	if num == 0 {
		return 0
	}
	return num / den
}

// relDiff is the symmetric per-entry relative difference; two exact
// zeros compare equal.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	den := math.Abs(a)
	if bb := math.Abs(b); bb > den {
		den = bb
	}
	return d / den
}

// bitsEqual reports whether two float slices are identical bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
