// Package irdrop is the end-to-end DC IR-drop analysis engine: it couples
// an R-Mesh model with the DRAM and logic power models, solves the nodal
// system for a memory state, and reports the per-die and stack-wide maximum
// IR drops that every experiment in the paper is built on.
//
// An Analyzer reuses its conductance matrix and solver set-up across
// memory states (only the right-hand side changes) and memoizes results by
// state, which keeps design-space sweeps cheap — the same property the
// paper exploits by replacing EPS extraction with the R-Mesh (§2.2).
// Look-up-table generation goes further: the mesh is linear, so
// ResponseCtx solves one response per die and bank count and the table's
// states are sums of those responses.
package irdrop

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/par"
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
	// Warm, when non-nil, seeds every solve with the most recent solution
	// published to the cell and publishes each completed solution back.
	// Warm-started solves converge to the same tolerance but are NOT
	// byte-identical to cold ones — leave Warm nil wherever bit-stable
	// outputs are promised (golden tables, the serve determinism
	// contract). Set it before the first Analyze call.
	Warm *WarmStart
	// SolveRecords, when non-nil, receives a flight record of every nodal
	// solve this analyzer runs — trajectory, coefficients, condition
	// estimate, termination — linked to the request trace when one is in
	// ctx. Recording never changes analysis results. Set it before the
	// first Analyze call.
	SolveRecords *obs.SolveBuffer

	results par.Cache[*Result]
	solves  atomic.Int64
	obs     *obs.Registry
}

// WarmStart is a shared warm-start cell: consecutive solves over
// near-identical systems (a value sweep over one topology) publish their
// solutions and seed from the latest one. The zero value is ready to use;
// a nil *WarmStart is inert. Safe for concurrent use — readers get some
// recent complete solution, never a torn one.
type WarmStart struct {
	v atomic.Pointer[[]float64]
}

// Seed returns the latest published solution if it matches dimension n,
// nil otherwise. The returned slice must be treated as read-only.
func (w *WarmStart) Seed(n int) []float64 {
	if w == nil {
		return nil
	}
	p := w.v.Load()
	if p == nil || len(*p) != n {
		return nil
	}
	return *p
}

// Publish stores x as the latest solution. The caller must not mutate x
// afterwards.
func (w *WarmStart) Publish(x []float64) {
	if w == nil || x == nil {
		return
	}
	w.v.Store(&x)
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
// every solve report into reg, and the analyzer's result memoization
// reports hit/miss counts under "irdrop.result_cache.*". A nil registry
// disables instrumentation; analysis results are identical either way.
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
	return NewFromTopologyObs(t, spec, dramPower, logicPower, nil)
}

// NewFromTopologyObs is NewFromTopology with instrumentation (see NewObs);
// the mesh reports under "rmesh.restamps" instead of "rmesh.builds".
func NewFromTopologyObs(t *rmesh.Topology, spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel, reg *obs.Registry) (*Analyzer, error) {
	if err := validatePowers(spec, dramPower, logicPower); err != nil {
		return nil, err
	}
	m, err := t.NewModelObs(spec, reg)
	if err != nil {
		return nil, err
	}
	return newAnalyzer(m, dramPower, logicPower, reg), nil
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
	a := &Analyzer{
		Model:      m,
		DRAMPower:  dramPower,
		LogicPower: logicPower,
		Opts:       solve.Options{CGOptions: solve.CGOptions{Tol: 1e-8, MaxIter: 60000}, Obs: reg},
		obs:        reg,
	}
	a.results.Hits = reg.Counter("irdrop.result_cache.hits")
	a.results.Misses = reg.Counter("irdrop.result_cache.misses")
	return a
}

// Spec returns the analyzed design.
func (a *Analyzer) Spec() *pdn.Spec { return a.Model.Spec }

// Analyze solves the design under the given memory state and I/O activity.
// Results are memoized by (state, io). Analyze is safe for concurrent use:
// the conductance matrix is immutable after Build, each solve works on its
// own vectors, and concurrent misses on the same key are deduplicated so
// every (state, io) pair is solved exactly once.
func (a *Analyzer) Analyze(state memstate.State, io float64) (*Result, error) {
	key := state.Key() + "@" + strconv.FormatFloat(io, 'g', -1, 64)
	return a.results.Do(context.TODO(), key, nil, func() (*Result, error) {
		a.solves.Add(1)
		return a.analyze(state, io)
	})
}

// Solves reports how many nodal solves the analyzer has run — cache hits
// and deduplicated concurrent misses do not count. Exposed for the
// exactly-once concurrency tests and solve-count accounting.
func (a *Analyzer) Solves() int { return int(a.solves.Load()) }

// AnalyzeCtx is Analyze with cooperative cancellation and WITHOUT the
// analyzer's unbounded memoization: ctx is polled at every solver
// iteration, so an abandoned request stops at the next iteration boundary.
// The serving layer uses this — it brings its own bounded cache, and
// per-request cancellation must not poison a shared memo entry that
// other callers would then retry. When ctx carries a
// request-trace span (obs.WithSpan), the analysis records "stamp" and
// "solve" child spans under it, the latter annotated with the solver's
// iteration count; with no span in ctx tracing is a no-op. A completed
// solve returns values identical to Analyze's.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, state memstate.State, io float64) (*Result, error) {
	opts := a.Opts
	opts.Cancel = ctx.Err
	a.solves.Add(1)
	return a.analyzeOpts(ctx, state, io, opts)
}

// ResponseCtx returns an IR-drop response: the per-node vector r with
// G·r = i(to) − i(from), the change in IR drop when the stack's loads move
// from state from to state to at per-die I/O activity io. i(s) is the load
// current state s draws, the fixed logic load included, so between two
// states the logic load cancels; a nil from stands for no load at all,
// which makes ResponseCtx(ctx, nil, s, io) state s's full IR-drop vector.
// The mesh is linear, so responses add: IR(s) = IR(idle) + Σ_d of the
// response to die d alone leaving idle for its banks in s.
//
// The system is solved in IR space. The supply ties are the only
// conductances to the folded reference, so G·(VDD·1) = BaseRHS and
// VDD·1 − v = G⁻¹·i: the right-hand side carries load current alone, and
// the solver's relative-residual target is taken against it rather than
// against the much larger tie currents in Analyze's right-hand side.
//
// Like AnalyzeCtx, ResponseCtx polls ctx at every solver iteration,
// records "stamp" and "solve" spans under ctx's span and commits a solve
// record. It keeps nothing in the per-state memo, and it neither reads nor
// publishes Warm: a warm seed holds node voltages, a different system's
// solution.
func (a *Analyzer) ResponseCtx(ctx context.Context, from *memstate.State, to memstate.State, io float64) ([]float64, error) {
	n := a.Model.N()
	stamp := obs.SpanFrom(ctx).Child("stamp")
	rhs := make([]float64, n)
	_, err := a.stampLoads(to, io, rhs, &Result{})
	var base []float64
	if err == nil && from != nil {
		base = make([]float64, n)
		_, err = a.stampLoads(*from, io, base, &Result{})
	}
	stamp.End()
	if err != nil {
		return nil, err
	}
	// stampLoads subtracts the current each load draws. A die whose banks
	// agree in both states stamps identical values, which cancel exactly.
	for k := range rhs {
		rhs[k] = -rhs[k]
		if base != nil {
			rhs[k] += base[k]
		}
	}
	opts := a.Opts
	opts.Cancel = ctx.Err
	a.solves.Add(1)
	r, _, _, err := a.solveTraced(ctx, rhs, opts, 0)
	if err != nil {
		return nil, fmt.Errorf("irdrop: %s response to state %s: %w", a.Spec().Name, to, err)
	}
	return r, nil
}

// AnalyzeCounts is Analyze for a bare per-die count vector using the
// worst-case edge placement (paper §5.1).
func (a *Analyzer) AnalyzeCounts(counts []int, io float64) (*Result, error) {
	st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(a.Spec().DRAM.NumBanks))
	if err != nil {
		return nil, err
	}
	return a.Analyze(st, io)
}

// LoadedRHS assembles the folded right-hand side for a state without
// solving — ties plus all DRAM and logic loads. Used by the netlist
// exporter.
func (a *Analyzer) LoadedRHS(state memstate.State, io float64) ([]float64, error) {
	spec := a.Spec()
	m := a.Model
	rhs := m.BaseRHS()
	for d := 0; d < spec.NumDRAM; d++ {
		var banks []int
		if d < len(state.Dies) {
			banks = state.Dies[d]
		}
		loads, err := a.DRAMPower.Loads(spec.DRAM, banks, io)
		if err != nil {
			return nil, err
		}
		if err := m.AddDRAMLoads(rhs, d, loads); err != nil {
			return nil, err
		}
	}
	if a.LogicPower != nil {
		loads, err := a.LogicPower.Loads(spec.Logic)
		if err != nil {
			return nil, err
		}
		if err := m.AddLogicLoads(rhs, loads); err != nil {
			return nil, err
		}
	}
	return rhs, nil
}

func (a *Analyzer) analyze(state memstate.State, io float64) (*Result, error) {
	return a.analyzeOpts(context.Background(), state, io, a.Opts)
}

// stampLoads folds state's DRAM and logic loads into rhs, accumulating
// the power bookkeeping fields of res, and returns the current in amps
// the loads draw. Split out of analyzeOpts so the "stamp" trace span
// brackets exactly this work and is closed on the error paths too.
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

func (a *Analyzer) analyzeOpts(ctx context.Context, state memstate.State, io float64, opts solve.Options) (*Result, error) {
	defer a.obs.Timer("irdrop.analyze_time").Start()()
	spec := a.Spec()
	m := a.Model
	rhs := m.BaseRHS()
	res := &Result{State: state, IO: io, PerDie: make([]float64, spec.NumDRAM)}
	stamp := obs.SpanFrom(ctx).Child("stamp")
	load, err := a.stampLoads(state, io, rhs, res)
	stamp.End()
	if err != nil {
		return nil, err
	}
	if opts.X0 == nil {
		opts.X0 = a.Warm.Seed(m.N())
	}
	v, stats, balance, err := a.solveTraced(ctx, rhs, opts, load)
	if err != nil {
		return nil, fmt.Errorf("irdrop: %s state %s: %w", spec.Name, state, err)
	}
	// Publish after success: v is not retained anywhere else (IR below is
	// a fresh slice), so later seeds read an immutable solution.
	a.Warm.Publish(v)
	res.Stats = stats
	res.Balance = balance
	res.IR = m.IRDrop(v)
	for d := 0; d < spec.NumDRAM; d++ {
		res.PerDie[d] = m.DieMaxIR(res.IR, d)
		if res.PerDie[d] > res.MaxIR {
			res.MaxIR = res.PerDie[d]
		}
	}
	if spec.OnLogic {
		res.LogicIR = m.DieMaxIR(res.IR, rmesh.DieLogic)
	}
	// Max over all analyzed states: order-independent, so deterministic.
	a.obs.Gauge("irdrop.max_ir_v").SetMax(res.MaxIR)
	return res, nil
}

// solveTraced runs one nodal solve under a "solve" child of ctx's span,
// annotated when opts warm-starts it, and commits the solve's flight
// record on the error path too: a failed or cancelled solve is exactly the
// record /debug/solves exists to surface. When load, the current in amps
// the right-hand side's loads draw, is positive, rhs is a voltage-space
// right-hand side and the solution's Kirchhoff balance against load is
// returned and recorded.
func (a *Analyzer) solveTraced(ctx context.Context, rhs []float64, opts solve.Options, load float64) ([]float64, solve.CGStats, float64, error) {
	sp := obs.SpanFrom(ctx).Child("solve")
	if opts.X0 != nil {
		sp.Annotate(obs.A("warm", true))
	}
	opts.Span = sp
	rec := a.SolveRecords.StartSolveRecord()
	rec.SetTrace(obs.TraceFrom(ctx).ID())
	opts.Rec = rec
	v, stats, err := a.Model.Solve(rhs, opts)
	sp.End()
	var balance float64
	if err == nil {
		balance = a.Model.Balance(v, load)
		rec.SetBalance(balance)
	}
	rec.Commit()
	return v, stats, balance, err
}

// MaxIRmV returns the stack maximum IR drop in millivolts.
func (r *Result) MaxIRmV() float64 { return r.MaxIR * 1000 }

// LogicIRmV returns the logic die maximum IR drop in millivolts.
func (r *Result) LogicIRmV() float64 { return r.LogicIR * 1000 }
