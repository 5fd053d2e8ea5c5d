package solve

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// Solver solves A·x = b for one fixed matrix bound at construction, and is
// reusable — and safe for concurrent use — across right-hand sides. The
// per-matrix preconditioner setup happens once in the factory, which is
// what makes LUT builds and design-space sweeps with thousands of
// right-hand sides tractable.
type Solver interface {
	// Method returns the registry name the solver was built under.
	Method() string
	// Solve returns x with A·x = b, with per-call tuning in opt. b is
	// left as it was.
	Solve(b []float64, opt CGOptions) ([]float64, CGStats, error)
	// SolveCols solves A·x = B for every column in lockstep, consuming
	// each column's B, and sets each column's X, Stats and Err to what
	// Solve would return for it. Solve is its one-column case.
	SolveCols(cols []Column)
}

// Options selects and tunes a solver built through the registry.
type Options struct {
	// Method is the registry name: "cg-ic0" or "cg-amg" (plus anything
	// registered by tests). Empty lets MethodFor pick by system size.
	Method string
	// CGOptions is the default per-call tuning passed to Solve by
	// callers that hold an Options rather than separate knobs.
	CGOptions
	// Obs, when non-nil, receives per-method solver metrics (solve and
	// iteration counts, iteration histogram, max residual, setup and
	// preconditioner-apply time) under "solve.<method>.*". Instrumented
	// and uninstrumented solves produce identical results.
	Obs *obs.Registry
}

// Method names built in to the registry.
const (
	// MethodCGIC0 is IC(0)-preconditioned CG, the default below
	// AMGMinNodes.
	MethodCGIC0 = "cg-ic0"
	// MethodCGAMG is CG preconditioned by an aggregation-based algebraic
	// multigrid V-cycle (see amg.go), the default from AMGMinNodes up.
	MethodCGAMG = "cg-amg"
)

// Preconditioner names stamped into solve records and trace spans.
const (
	precondIC0 = "ic0"
	precondAMG = "amg"
)

// AMGMinNodes is the system size from which an empty Options.Method
// resolves to cg-amg instead of cg-ic0. A pitch sweep of ddr3-off
// (DESIGN §5h) timed a cold set-up plus one solve under each: the two
// cross within 3 % between 13k and 15k nodes, and cg-amg leads from
// here up. It sits above the largest paper design at its default pitch
// (wideio, 16,093 nodes), so those keep cg-ic0's cheaper set-up.
const AMGMinNodes = 16_928

// MethodFor resolves the method an n-node system is solved with: method
// itself when set, otherwise cg-ic0 below AMGMinNodes and cg-amg at or
// above it.
func MethodFor(method string, n int) string {
	switch {
	case method != "":
		return method
	case n < AMGMinNodes:
		return MethodCGIC0
	default:
		return MethodCGAMG
	}
}

// Factory builds a Solver for one matrix.
type Factory func(a *sparse.CSR, opt Options) (Solver, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a solver factory under the given method name, replacing
// any previous registration.
func Register(method string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[method] = f
}

// Methods lists the registered method names, sorted.
func Methods() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for m := range registry {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// New builds a solver for the matrix using the method named in opt, or
// the one MethodFor picks for the matrix's size when that is empty.
func New(a *sparse.CSR, opt Options) (Solver, error) {
	method := MethodFor(opt.Method, a.N)
	regMu.RLock()
	f, ok := registry[method]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown method %q (registered: %v)", method, Methods())
	}
	return f(a, opt)
}

func init() {
	Register(MethodCGIC0, cgFactory(MethodCGIC0, precondIC0, func(a *sparse.CSR) (Preconditioner, error) {
		return NewIC(a)
	}))
	Register(MethodCGAMG, cgFactory(MethodCGAMG, precondAMG, func(a *sparse.CSR) (Preconditioner, error) {
		return NewAMG(a)
	}))
}

// cgFactory builds the registry factory of a preconditioned-CG method:
// the preconditioner is set up once, timed under solve.<method>.setup_time,
// and a setup failure (a *DegenerateDiagonalError on a floating node, or a
// factorization breakdown) is returned as is.
func cgFactory(method, precond string, setup func(*sparse.CSR) (Preconditioner, error)) Factory {
	return func(a *sparse.CSR, opt Options) (Solver, error) {
		m := newSolverMetrics(opt.Obs, method)
		stop := m.setup.Start()
		pre, err := setup(a)
		stop()
		if err != nil {
			return nil, err
		}
		return &cgSolver{method: method, a: a, pre: pre, m: m, precond: precond}, nil
	}
}

// cgSolver is a preconditioned-CG method bound to one matrix. precond
// names its preconditioner, which every recorded solve and trace span
// carries.
type cgSolver struct {
	method  string
	a       *sparse.CSR
	pre     Preconditioner
	m       solverMetrics
	precond string
}

func (s *cgSolver) Method() string { return s.method }

func (s *cgSolver) Solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	cols := []Column{{B: slices.Clone(b), Opt: opt}}
	s.SolveCols(cols)
	return cols[0].X, cols[0].Stats, cols[0].Err
}

func (s *cgSolver) SolveCols(cols []Column) {
	// Stamp the solver identity before the solve so even a cancelled or
	// failed record names the method and its preconditioner.
	for j := range cols {
		cols[j].Opt.Rec.SetSolver(s.method, s.precond)
	}
	stop := s.m.solveTime.Start()
	pcg(s.a, s.pre, s.m.apply, cols)
	stop()
	for j := range cols {
		if cols[j].Opt.Span != nil {
			cols[j].Opt.Span.Annotate(obs.A("precond", s.precond))
		}
		s.m.record(cols[j].Stats, cols[j].Err)
	}
}
