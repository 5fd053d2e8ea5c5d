// Package irdrop is the end-to-end DC IR-drop analysis engine: it couples
// an R-Mesh model with the DRAM and logic power models, solves the nodal
// system for a memory state, and reports the per-die and stack-wide maximum
// IR drops that every experiment in the paper is built on.
//
// An Analyzer reuses its conductance matrix and solver set-up across
// memory states (only the right-hand side changes), which keeps
// design-space sweeps cheap — the same property the paper exploits by
// replacing EPS extraction with the R-Mesh (§2.2). It keeps no answers:
// every analysis runs one solve, and a caller that repeats points keeps
// their answers itself (exp.Runner and the serving layer each key theirs
// by speckey.Point). Look-up-table generation goes further: the mesh is
// linear and a state's loads are a weighted sum of fixed unit load terms
// (Term), so ResponseCtx solves one response per term and the table's
// states are weighted sums of those responses. Several right-hand sides
// on one design — a table's unit terms, a candidate's worst-case states
// (AnalyzeAllCtx) — are solved in lockstep, each answer bit-identical to
// a solve of its own.
package irdrop

import (
	"context"
	"fmt"
	"sync/atomic"

	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
)

// Analyzer runs IR-drop analyses on one design.
type Analyzer struct {
	// Model is the assembled R-Mesh.
	Model *rmesh.Model
	// DRAMPower is the DRAM die power model.
	DRAMPower *powermap.DRAMModel
	// LogicPower is the host logic power model (nil off-chip, or when the
	// logic die should be analyzed unloaded).
	LogicPower *powermap.LogicModel
	// Opts selects and tunes the solver. The zero value selects the default
	// method with tolerances good for millivolt-accurate results. Set it
	// before the first Analyze call; it must not change afterwards.
	Opts solve.Options
	// SolveRecords, when non-nil, receives a flight record of every nodal
	// solve this analyzer runs — trajectory, coefficients, condition
	// estimate, termination — linked to the request trace when one is in
	// ctx. Recording never changes analysis results. Set it before the
	// first Analyze call.
	SolveRecords *obs.SolveBuffer

	solves atomic.Int64
	obs    *obs.Registry
}

// Result is one IR-drop analysis outcome.
type Result struct {
	// State is the analyzed memory state.
	State memstate.State
	// IO is the per-die I/O activity used.
	IO float64
	// MaxIR is the maximum IR drop over all DRAM dies in volts — the
	// number the paper's tables report (in mV).
	MaxIR float64
	// PerDie is the per-DRAM-die maximum IR drop in volts.
	PerDie []float64
	// LogicIR is the logic die's maximum IR drop (0 when absent).
	LogicIR float64
	// TotalPower is the summed DRAM stack power in mW.
	TotalPower float64
	// ActiveDiePower is the power of one active die in mW (0 if none).
	ActiveDiePower float64
	// Stats reports the solve.
	Stats solve.CGStats
	// Balance is the answer's relative Kirchhoff current-balance error:
	// how far the current the supply ties deliver is from the current the
	// loads draw (rmesh.Model.Balance).
	Balance float64
	// IR holds the full per-node IR-drop vector (volts) for map export.
	IR []float64
}

// New builds an Analyzer for a design.
func New(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel) (*Analyzer, error) {
	return NewObs(spec, dramPower, logicPower, nil)
}

// NewObs is New with instrumentation: the mesh build, solver setup, and
// every solve report into reg. A nil registry disables instrumentation;
// analysis results are identical either way.
func NewObs(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel, reg *obs.Registry) (*Analyzer, error) {
	if err := validatePowers(spec, dramPower, logicPower); err != nil {
		return nil, err
	}
	m, err := rmesh.BuildObs(spec, reg)
	if err != nil {
		return nil, err
	}
	return newAnalyzer(m, dramPower, logicPower, reg), nil
}

// NewFromTopology builds an Analyzer by restamping spec's values over an
// already-frozen mesh topology, skipping geometry and symbolic work. The
// restamped matrix is bit-identical to a full build's, so analysis
// results are too. spec must share t's topology key.
func NewFromTopology(t *rmesh.Topology, spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel) (*Analyzer, error) {
	if err := validatePowers(spec, dramPower, logicPower); err != nil {
		return nil, err
	}
	m, err := t.NewModel(spec)
	if err != nil {
		return nil, err
	}
	return newAnalyzer(m, dramPower, logicPower, nil), nil
}

func validatePowers(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel) error {
	if err := dramPower.Validate(); err != nil {
		return err
	}
	if logicPower != nil {
		if err := logicPower.Validate(); err != nil {
			return err
		}
		if !spec.OnLogic {
			return fmt.Errorf("irdrop: logic power given for an off-chip design")
		}
	}
	return nil
}

func newAnalyzer(m *rmesh.Model, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel, reg *obs.Registry) *Analyzer {
	return &Analyzer{
		Model:      m,
		DRAMPower:  dramPower,
		LogicPower: logicPower,
		Opts:       solve.Options{CGOptions: solve.CGOptions{Tol: 1e-8, MaxIter: 60000}, Obs: reg},
		obs:        reg,
	}
}

// Spec returns the analyzed design.
func (a *Analyzer) Spec() *pdn.Spec { return a.Model.Spec }

// Analyze is AnalyzeCtx without cancellation.
func (a *Analyzer) Analyze(state memstate.State, io float64) (*Result, error) {
	return a.AnalyzeCtx(context.Background(), state, io)
}

// Solves reports how many nodal solves the analyzer has run. Exposed for
// solve-count accounting in tests.
func (a *Analyzer) Solves() int { return int(a.solves.Load()) }

// AnalyzeCtx solves the design under the given memory state and I/O
// activity, with cooperative cancellation: ctx is polled at every solver
// iteration, so an abandoned request stops at the next iteration
// boundary. Every call runs one solve, from zero, so a completed solve's
// answer depends on nothing but the design, state and activity; callers
// that repeat points keep their own answers. When ctx carries a
// request-trace span (obs.WithSpan), the analysis records "stamp" and
// "solve" child spans under it, the latter annotated with the solver's
// iteration count; with no span in ctx tracing is a no-op. AnalyzeCtx is
// safe for concurrent use: the conductance matrix is immutable after
// Build and each solve works on its own vectors. It is AnalyzeAllCtx's
// one-state case.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, state memstate.State, io float64) (*Result, error) {
	res, err := a.AnalyzeAllCtx(ctx, []memstate.State{state}, []float64{io})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// AnalyzeAllCtx is AnalyzeCtx for several states at once, state j at
// activity ios[j]: their solves run in lockstep (rmesh.Model.SolveCols),
// so they share their passes over the matrix and the factor, and each
// state's result is bit-identical to its own AnalyzeCtx. Each state gets
// its own "stamp" and "solve" spans and solve record. The first failing
// state's error is returned.
func (a *Analyzer) AnalyzeAllCtx(ctx context.Context, states []memstate.State, ios []float64) ([]*Result, error) {
	defer a.obs.Timer("irdrop.analyze_time").Start()()
	if len(ios) != len(states) {
		return nil, fmt.Errorf("irdrop: %d states, %d I/O activities", len(states), len(ios))
	}
	spec := a.Spec()
	m := a.Model
	res := make([]*Result, len(states))
	rhs := make([][]float64, len(states))
	loads := make([]float64, len(states))
	for j, state := range states {
		rhs[j] = m.BaseRHS()
		res[j] = &Result{State: state, IO: ios[j], PerDie: make([]float64, spec.NumDRAM)}
		stamp := obs.SpanFrom(ctx).Child("stamp")
		var err error
		loads[j], err = a.stampLoads(state, ios[j], rhs[j], res[j])
		stamp.End()
		if err != nil {
			return nil, err
		}
	}
	cols, balances := a.solveCols(ctx, rhs, loads, true)
	for j, r := range res {
		if err := cols[j].Err; err != nil {
			return nil, fmt.Errorf("irdrop: %s state %s: %w", spec.Name, r.State, err)
		}
		r.Stats = cols[j].Stats
		r.Balance = balances[j]
		r.IR = cols[j].X
		for d := 0; d < spec.NumDRAM; d++ {
			r.PerDie[d] = m.DieMaxIR(r.IR, d)
			if r.PerDie[d] > r.MaxIR {
				r.MaxIR = r.PerDie[d]
			}
		}
		if spec.OnLogic {
			r.LogicIR = m.DieMaxIR(r.IR, rmesh.DieLogic)
		}
		// Max over all analyzed states: order-independent, so deterministic.
		a.obs.Gauge("irdrop.max_ir_v").SetMax(r.MaxIR)
	}
	return res, nil
}

// TermKind selects one of a design's unit load terms.
type TermKind uint8

const (
	// TermStandby is every DRAM die's standby pattern carrying 1 mW
	// (powermap.DRAMModel.StandbyLoads); a state draws it at idle(io).
	TermStandby TermKind = iota
	// TermLogic is the logic die's fixed load (on-chip designs only).
	TermLogic
	// TermIO is one DRAM die's I/O pattern carrying 1 mW
	// (powermap.DRAMModel.IOLoads); an active die draws it at ioP(io).
	TermIO
	// TermBank is one active bank's fixed load
	// (powermap.DRAMModel.BankLoads).
	TermBank
)

// Term is one unit load term. A state's loads at I/O activity io are a
// weighted sum of terms: TermStandby at idle(io), the logic load, and for
// each active die its banks' TermBank loads plus TermIO at ioP(io)
// (powermap.DRAMModel.Weights).
type Term struct {
	// Kind selects the pattern.
	Kind TermKind
	// Die is the DRAM die of a TermIO or TermBank term.
	Die int
	// Bank is the bank of a TermBank term.
	Bank int
}

func (t Term) String() string {
	switch t.Kind {
	case TermStandby:
		return "standby"
	case TermLogic:
		return "logic"
	case TermIO:
		return fmt.Sprintf("io die %d", t.Die)
	default:
		return fmt.Sprintf("bank %d die %d", t.Bank, t.Die)
	}
}

// ResponseCtx returns the IR-drop responses to unit load terms: for
// each term t the per-node vector r with G·r = i(t), the current t
// draws. The mesh is linear, so responses add: a state's IR-drop vector
// at activity io is idle(io)·r(standby) + r(logic) + Σ over active dies d
// of Σ_b r(bank b on d) + ioP(io)·r(io on d). No term depends on io, so
// one response serves every I/O level.
//
// The system is solved in IR space. The supply ties are the only
// conductances to the folded reference, so G·(VDD·1) = BaseRHS and
// VDD·1 − v = G⁻¹·i: the right-hand side carries load current alone, and
// the solver's relative-residual target is taken against it rather than
// against the much larger tie currents in Analyze's right-hand side.
//
// The terms are solved in lockstep (rmesh.Model.SolveCols), each
// response bit-identical to a solve of its own. Like AnalyzeCtx,
// ResponseCtx polls ctx at every solver iteration, and each term records
// "stamp" and "solve" spans under ctx's span and commits a solve record
// carrying its response's Kirchhoff balance. The first failing term's
// error is returned.
func (a *Analyzer) ResponseCtx(ctx context.Context, terms []Term) ([][]float64, error) {
	rhs := make([][]float64, len(terms))
	loads := make([]float64, len(terms))
	for j, t := range terms {
		stamp := obs.SpanFrom(ctx).Child("stamp")
		rhs[j] = make([]float64, a.Model.N())
		var err error
		loads[j], err = a.stampTerm(t, rhs[j])
		stamp.End()
		if err != nil {
			return nil, err
		}
		// Stamping subtracts the current each load draws.
		for k := range rhs[j] {
			rhs[j][k] = -rhs[j][k]
		}
	}
	cols, _ := a.solveCols(ctx, rhs, loads, false)
	out := make([][]float64, len(terms))
	for j, c := range cols {
		if c.Err != nil {
			return nil, fmt.Errorf("irdrop: %s response to %s: %w", a.Spec().Name, terms[j], c.Err)
		}
		out[j] = c.X
	}
	return out, nil
}

// stampTerm folds term t's loads into rhs and returns the current in amps
// they draw.
func (a *Analyzer) stampTerm(t Term, rhs []float64) (float64, error) {
	spec := a.Spec()
	amps := func(mW float64) float64 { return mW / 1000 / a.Model.VDD }
	if t.Kind == TermLogic {
		if a.LogicPower == nil {
			return 0, fmt.Errorf("irdrop: %s has no logic load", spec.Name)
		}
		loads, err := a.LogicPower.Loads(spec.Logic)
		if err != nil {
			return 0, err
		}
		return amps(powermap.TotalPower(loads)), a.Model.AddLogicLoads(rhs, loads)
	}
	var loads []powermap.Load
	var err error
	dies := []int{t.Die}
	switch t.Kind {
	case TermStandby:
		loads, err = a.DRAMPower.StandbyLoads(spec.DRAM, 1)
		dies = make([]int, spec.NumDRAM)
		for d := range dies {
			dies[d] = d
		}
	case TermIO:
		loads, err = a.DRAMPower.IOLoads(spec.DRAM, 1)
	case TermBank:
		loads, err = a.DRAMPower.BankLoads(spec.DRAM, t.Bank)
	default:
		err = fmt.Errorf("irdrop: unknown term kind %d", t.Kind)
	}
	if err != nil {
		return 0, err
	}
	for _, d := range dies {
		if err := a.Model.AddDRAMLoads(rhs, d, loads); err != nil {
			return 0, err
		}
	}
	return amps(powermap.TotalPower(loads) * float64(len(dies))), nil
}

// AnalyzeCounts is Analyze for a bare per-die count vector using the
// worst-case edge placement (paper §5.1).
func (a *Analyzer) AnalyzeCounts(counts []int, io float64) (*Result, error) {
	st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(a.Spec().DRAM.NumBanks))
	if err != nil {
		return nil, err
	}
	return a.AnalyzeCtx(context.Background(), st, io)
}

// LoadedRHS assembles the folded right-hand side for a state without
// solving — ties plus all DRAM and logic loads, exactly what AnalyzeCtx
// solves. Used by the netlist exporter.
func (a *Analyzer) LoadedRHS(state memstate.State, io float64) ([]float64, error) {
	rhs := a.Model.BaseRHS()
	if _, err := a.stampLoads(state, io, rhs, &Result{}); err != nil {
		return nil, err
	}
	return rhs, nil
}

// stampLoads folds state's DRAM and logic loads into rhs, accumulating
// the power bookkeeping fields of res, and returns the current in amps
// the loads draw. It is the one place a state's loads are stamped, and a
// function of its own so the "stamp" trace span brackets exactly this
// work and is closed on the error paths too.
func (a *Analyzer) stampLoads(state memstate.State, io float64, rhs []float64, res *Result) (float64, error) {
	spec := a.Spec()
	if state.NumDies() > spec.NumDRAM {
		return 0, fmt.Errorf("irdrop: state has %d dies, design has %d", state.NumDies(), spec.NumDRAM)
	}
	var power float64 // mW, logic included
	for d := 0; d < spec.NumDRAM; d++ {
		var banks []int
		if d < len(state.Dies) {
			banks = state.Dies[d]
		}
		loads, err := a.DRAMPower.Loads(spec.DRAM, banks, io)
		if err != nil {
			return 0, err
		}
		p := powermap.TotalPower(loads)
		res.TotalPower += p
		power += p
		if len(banks) > 0 {
			res.ActiveDiePower = p
		}
		if err := a.Model.AddDRAMLoads(rhs, d, loads); err != nil {
			return 0, err
		}
	}
	if a.LogicPower != nil {
		loads, err := a.LogicPower.Loads(spec.Logic)
		if err != nil {
			return 0, err
		}
		power += powermap.TotalPower(loads)
		if err := a.Model.AddLogicLoads(rhs, loads); err != nil {
			return 0, err
		}
	}
	return power / 1000 / a.Model.VDD, nil
}

// solveCols solves the right-hand sides rhs in lockstep with a.Opts,
// consuming them, and polls ctx at every iteration. Each column runs
// under its own "solve" child of ctx's span and commits its own flight
// record, on the error path too: a failed or cancelled solve is exactly
// the record /debug/solves exists to surface. Each column's X is its
// IR-drop vector: the solution itself for an IR-space right-hand side,
// VDD − v for a voltage-space one (voltage true). Its Kirchhoff balance
// against loads[j], the current in amps its loads draw, is returned and
// recorded. A solver set-up failure is every column's error.
func (a *Analyzer) solveCols(ctx context.Context, rhs [][]float64, loads []float64, voltage bool) ([]solve.Column, []float64) {
	a.solves.Add(int64(len(rhs)))
	cols := make([]solve.Column, len(rhs))
	trace := obs.TraceFrom(ctx).ID()
	for j := range cols {
		opts := a.Opts.CGOptions
		opts.Cancel = ctx.Err
		opts.Span = obs.SpanFrom(ctx).Child("solve")
		rec := a.SolveRecords.StartSolveRecord()
		rec.SetTrace(trace)
		opts.Rec = rec
		cols[j] = solve.Column{B: rhs[j], Opt: opts}
	}
	err := a.Model.SolveCols(cols, a.Opts)
	balances := make([]float64, len(cols))
	for j := range cols {
		c := &cols[j]
		c.Opt.Span.End()
		if err != nil {
			c.Err = err
		}
		if c.Err == nil {
			if voltage {
				c.X = a.Model.IRDrop(c.X)
			}
			balances[j] = a.Model.Balance(c.X, loads[j])
			c.Opt.Rec.SetBalance(balances[j])
		}
		c.Opt.Rec.Commit()
	}
	return cols, balances
}

// MaxIRmV returns the stack maximum IR drop in millivolts.
func (r *Result) MaxIRmV() float64 { return r.MaxIR * 1000 }

// LogicIRmV returns the logic die maximum IR drop in millivolts.
func (r *Result) LogicIRmV() float64 { return r.LogicIR * 1000 }
