package solve

import (
	"fmt"
	"sort"
	"sync"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// Solver solves A·x = b for one fixed matrix bound at construction, and is
// reusable — and safe for concurrent use — across right-hand sides. Any
// per-matrix setup (preconditioner factorization, dense factorization)
// happens once in the factory, which is what makes LUT builds and
// design-space sweeps with thousands of right-hand sides tractable.
type Solver interface {
	// Method returns the registry name the solver was built under.
	Method() string
	// Solve returns x with A·x = b, with per-call tuning for the
	// iterative methods (direct methods ignore opt).
	Solve(b []float64, opt CGOptions) ([]float64, CGStats, error)
}

// Options selects and tunes a solver built through the registry.
type Options struct {
	// Method is the registry name: "cg-ic0", "cg-jacobi", or "cholesky"
	// (plus anything registered by tests or future backends). Empty
	// selects DefaultMethod.
	Method string
	// Workers bounds the worker pool the BLAS-1/SpMV kernels shard
	// across on large systems. <= 0 selects GOMAXPROCS. Results are
	// identical for every value (deterministic sharding).
	Workers int
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
	// MethodCGIC0 is IC(0)-preconditioned CG — the production default.
	MethodCGIC0 = "cg-ic0"
	// MethodCGJacobi is Jacobi-preconditioned CG — the robust fallback.
	MethodCGJacobi = "cg-jacobi"
	// MethodCGAMG is CG preconditioned by an aggregation-based algebraic
	// multigrid V-cycle (see amg.go). Callers that hold an rmesh model
	// additionally run it on the RCM-reordered system.
	MethodCGAMG = "cg-amg"
	// MethodCholesky is the dense exact factorization — the golden
	// reference for small systems (O(n³)).
	MethodCholesky = "cholesky"
)

// Preconditioner names reported in CGStats.Precond.
const (
	precondIC0    = "ic0"
	precondJacobi = "jacobi"
	precondAMG    = "amg"
)

// UsesReordering reports whether a method solves the RCM-reordered
// system. Only cg-amg does, and not merely to keep the other methods'
// outputs byte-pinned: IC(0) converges slower on the RCM order. With the
// gate forced on, the 243 solves of `tables -only table6` took 31,676
// summed IC(0) iterations instead of 23,850 (+33%). Making cg-amg the
// default instead (perfbench, median of 3 runs on a 2-vCPU Xeon) cut
// lut-policy wall_s from 8.00 to 5.58 s but raised design-sweep setup_s
// from 0.152 to 0.189 s and peak_rss_mb from 252 to 318 MB. So the gate
// can go only together with cg-ic0, once a size threshold picks the
// method.
func UsesReordering(method string) bool { return method == MethodCGAMG }

// DefaultMethod is used when Options.Method is empty.
const DefaultMethod = MethodCGIC0

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

// New builds a solver for the matrix using the method named in opt
// (DefaultMethod when empty).
func New(a *sparse.CSR, opt Options) (Solver, error) {
	method := opt.Method
	if method == "" {
		method = DefaultMethod
	}
	regMu.RLock()
	f, ok := registry[method]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown method %q (registered: %v)", method, Methods())
	}
	return f(a, opt)
}

func init() {
	Register(MethodCGJacobi, func(a *sparse.CSR, opt Options) (Solver, error) {
		m := newSolverMetrics(opt.Obs, MethodCGJacobi)
		stop := m.setup.Start()
		pre, err := NewJacobi(a)
		stop()
		if err != nil {
			return nil, err
		}
		return newCGSolver(MethodCGJacobi, a, pre, opt, m, precondJacobi, false), nil
	})
	Register(MethodCGIC0, func(a *sparse.CSR, opt Options) (Solver, error) {
		// IC(0) of an SPD matrix can still break down; mirror the PCG
		// fallback and degrade to Jacobi scaling. The swap is recorded in
		// the solve.ic_fallbacks counter and in every CGStats this solver
		// returns — a silent preconditioner substitution once hid solver
		// regressions from traces and the diff harness.
		m := newSolverMetrics(opt.Obs, MethodCGIC0)
		stop := m.setup.Start()
		precond, fallback := precondIC0, false
		var pre Preconditioner
		ic, err := NewIC(a)
		if err == nil {
			pre = ic
		} else {
			precond, fallback = precondJacobi, true
			opt.Obs.Counter("solve.ic_fallbacks").Add(1)
			if pre, err = NewJacobi(a); err != nil {
				stop()
				return nil, err
			}
		}
		stop()
		return newCGSolver(MethodCGIC0, a, pre, opt, m, precond, fallback), nil
	})
	Register(MethodCGAMG, func(a *sparse.CSR, opt Options) (Solver, error) {
		m := newSolverMetrics(opt.Obs, MethodCGAMG)
		stop := m.setup.Start()
		pre, err := NewAMG(a)
		stop()
		if err != nil {
			return nil, err
		}
		return newCGSolver(MethodCGAMG, a, pre, opt, m, precondAMG, false), nil
	})
	Register(MethodCholesky, func(a *sparse.CSR, opt Options) (Solver, error) {
		m := newSolverMetrics(opt.Obs, MethodCholesky)
		stop := m.setup.Start()
		c, err := NewCholesky(a)
		stop()
		if err != nil {
			return nil, err
		}
		return &cholSolver{a: a, c: c, k: kernels{workers: opt.Workers}, m: m}, nil
	})
}

// cgSolver is a preconditioned-CG method bound to one matrix. precond
// names the preconditioner that was actually built (which can differ from
// the method's preferred one — see the cg-ic0 fallback), and fallback
// records that substitution; both are stamped into every CGStats returned.
type cgSolver struct {
	method   string
	a        *sparse.CSR
	pre      Preconditioner
	k        kernels
	m        solverMetrics
	precond  string
	fallback bool
}

func newCGSolver(method string, a *sparse.CSR, pre Preconditioner, opt Options, m solverMetrics, precond string, fallback bool) *cgSolver {
	if opt.Obs != nil {
		pre = timedPre{pre: pre, t: m.apply}
	}
	return &cgSolver{method: method, a: a, pre: pre, k: kernels{workers: opt.Workers}, m: m, precond: precond, fallback: fallback}
}

func (s *cgSolver) Method() string { return s.method }

func (s *cgSolver) Solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	if opt.X0 != nil {
		s.m.warmStarts.Add(1)
	}
	// Stamp the solver identity before the solve so even a cancelled or
	// failed record names the method and the preconditioner that really
	// ran (fallback included).
	opt.Rec.SetSolver(s.method, s.precond, s.fallback)
	stop := s.m.solveTime.Start()
	x, stats, err := pcg(s.a, s.pre, b, opt, s.k)
	stop()
	stats.Precond = s.precond
	stats.Fallback = s.fallback
	if opt.Span != nil {
		opt.Span.Annotate(obs.A("precond", s.precond))
		if s.fallback {
			opt.Span.Annotate(obs.A("precond_fallback", true))
		}
	}
	s.m.record(stats, err)
	return x, stats, err
}

// cholSolver wraps the dense factorization behind the Solver interface.
type cholSolver struct {
	a *sparse.CSR
	c *Cholesky
	k kernels
	m solverMetrics
}

func (s *cholSolver) Method() string { return MethodCholesky }

func (s *cholSolver) Solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	// A direct factorization gains nothing from a starting guess, so
	// opt.X0 is ignored — exact solves are trivially "warm".
	// The dense triangular solves have no iteration boundary to poll, so
	// cancellation is honored only before the work starts. A recorded
	// direct solve carries no iteration trajectory and no condition
	// estimate — just identity, residual, and termination.
	opt.Rec.Begin(s.a.N)
	opt.Rec.SetSolver(MethodCholesky, "", false)
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			opt.Rec.Finish(0, 0, false, obs.TermCancelled)
			return nil, CGStats{}, fmt.Errorf("solve: canceled: %w", err)
		}
	}
	stop := s.m.solveTime.Start()
	x, err := s.c.Solve(b)
	stop()
	if err != nil {
		s.m.record(CGStats{}, err)
		opt.Rec.Finish(0, 0, false, obs.TermError)
		return nil, CGStats{}, err
	}
	// Report the true relative residual so direct solves carry honest
	// stats; one SpMV is noise next to the O(n³) factorization.
	stats := CGStats{Converged: true}
	if normB := s.k.norm2(b); normB > 0 {
		r := make([]float64, s.a.N)
		s.k.mulVec(s.a, r, x)
		s.k.axpy(r, -1, b)
		stats.Residual = s.k.norm2(r) / normB
	}
	s.m.record(stats, nil)
	opt.Rec.Finish(0, stats.Residual, true, obs.TermConverged)
	return x, stats, nil
}
