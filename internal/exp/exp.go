// Package exp regenerates every table and figure of the paper's
// evaluation: one function per experiment, returning report tables/series
// that cmd/tables prints and bench_test.go drives.
//
// The experiment index (paper table/figure -> function) lives in DESIGN.md;
// EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"context"
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/lut"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/opt"
	"pdn3d/internal/par"
	"pdn3d/internal/pdn"
	"pdn3d/internal/speckey"
)

// Config tunes experiment fidelity against runtime.
type Config struct {
	// MeshPitch overrides every design's R-Mesh pitch (mm). Zero keeps
	// the specs' defaults (0.2 mm). Benchmarks and smoke tests use a
	// coarser pitch for speed.
	MeshPitch float64
	// Requests overrides the controller workload length (0 = 10000).
	Requests int
	// Workers bounds the sweep worker pool. <= 0 selects GOMAXPROCS.
	// Outputs are identical for every value.
	Workers int
	// Obs, when non-nil, receives run metrics and, on its run trace, a
	// span per experiment: mesh/solver instrumentation from the layers
	// below, sweep pool metrics under "exp.sweep.*", and analyzer/result/
	// LUT/fit cache hit rates. Results are identical with or without it.
	Obs *obs.Registry
}

// Runner executes experiments, caching what they reuse: analyzers,
// answers and look-up tables across experiments that share a design, and
// each benchmark's fitted co-optimizer across Table 9 and the regression
// study. It is safe for concurrent use: cache misses on the same key are
// deduplicated so each analyzer, answer, table, and fit is built exactly
// once.
type Runner struct {
	Cfg Config

	analyzers par.Cache[*irdrop.Analyzer]
	results   par.Cache[*irdrop.Result]
	luts      par.Cache[*lut.Table]
	fits      par.Cache[*opt.Optimizer]
	sweeps    *obs.SweepMetrics
}

// NewRunner returns a Runner with the given fidelity configuration.
func NewRunner(cfg Config) *Runner {
	r := &Runner{Cfg: cfg}
	reg := cfg.Obs
	r.sweeps = reg.SweepMetrics("exp.sweep")
	r.analyzers.Hits = reg.Counter("exp.analyzer_cache.hits")
	r.analyzers.Misses = reg.Counter("exp.analyzer_cache.misses")
	r.results.Hits = reg.Counter("exp.result_cache.hits")
	r.results.Misses = reg.Counter("exp.result_cache.misses")
	r.luts.Hits = reg.Counter("exp.lut_cache.hits")
	r.luts.Misses = reg.Counter("exp.lut_cache.misses")
	r.fits.Hits = reg.Counter("exp.fit_cache.hits")
	r.fits.Misses = reg.Counter("exp.fit_cache.misses")
	return r
}

// sweep fans fn over n independent design points on the runner's worker
// pool, collecting each point's result into a slice. It stops early on the
// first error and returns the lowest-indexed one.
func sweep[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := par.SweepWith(r.Cfg.Workers, n, r.sweeps, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepCells fans fn over n independent table cells like sweep, but never
// aborts: every cell runs to completion, a failed cell keeps its zero
// value, and the per-cell errors come back positionally so callers can
// render failed cells as "ERR" instead of dropping the whole table. The
// third return aggregates the failures (nil when every cell succeeded).
func sweepCells[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, []error, error) {
	out := make([]T, n)
	errs := make([]error, n)
	// fn errors land in errs, not the sweep, so no cell cancels the rest.
	_ = par.SweepWith(r.Cfg.Workers, n, r.sweeps, func(i int) error {
		v, err := fn(i)
		if err != nil {
			errs[i] = err
			return nil
		}
		out[i] = v
		return nil
	})
	var first error
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
			if first == nil {
				first = e
			}
		}
	}
	if first != nil {
		return out, errs, fmt.Errorf("exp: %d of %d cells failed, first: %w", failed, n, first)
	}
	return out, errs, nil
}

// requests returns the workload length.
func (r *Runner) requests() int {
	if r.Cfg.Requests > 0 {
		return r.Cfg.Requests
	}
	return 10000
}

// prepare applies the runner's fidelity overrides to a cloned spec.
func (r *Runner) prepare(spec *pdn.Spec) *pdn.Spec {
	s := spec.Clone()
	if r.Cfg.MeshPitch > 0 {
		s.MeshPitch = r.Cfg.MeshPitch
	}
	return s
}

// analyzer returns a cached analyzer for spec, a prepared design of
// benchmark b, building its mesh exactly once even under concurrent
// misses.
func (r *Runner) analyzer(b *bench3d.Benchmark, spec *pdn.Spec) (*irdrop.Analyzer, error) {
	logic := b.LogicFor(spec)
	return r.analyzers.Do(context.TODO(), speckey.Spec(spec, logic != nil), nil, func() (*irdrop.Analyzer, error) {
		return irdrop.NewObs(spec, b.DRAMPower, logic, r.Cfg.Obs)
	})
}

// analyze answers one design point: spec, a prepared design of benchmark
// b, in memory state st at per-die I/O activity io. It is analyzeAll's
// one-point case.
func (r *Runner) analyze(b *bench3d.Benchmark, spec *pdn.Spec, st memstate.State, io float64) (*irdrop.Result, error) {
	res, err := r.analyzeAll(b, spec, []memstate.State{st}, []float64{io})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// analyzeAll answers the design points of one design: spec, a prepared
// design of benchmark b, in memory state states[j] at I/O activity
// ios[j]. Each point is solved exactly once per runner, even under
// concurrent misses, and experiments that revisit a point (a baseline
// shared by several tables) share its answer. The points this call
// solves run as one lockstep group (irdrop.Analyzer.AnalyzeAllCtx), each
// answer bit-identical to a solve of its own.
func (r *Runner) analyzeAll(b *bench3d.Benchmark, spec *pdn.Spec, states []memstate.State, ios []float64) ([]*irdrop.Result, error) {
	design := speckey.Spec(spec, b.LogicFor(spec) != nil)
	keys := make([]string, len(states))
	for j, st := range states {
		keys[j] = speckey.Point(design, st.Key(), ios[j])
	}
	return r.results.DoAll(context.TODO(), keys, nil, func(lead []int) ([]*irdrop.Result, error) {
		a, err := r.analyzer(b, spec)
		if err != nil {
			return nil, err
		}
		sts := make([]memstate.State, len(lead))
		lios := make([]float64, len(lead))
		for k, j := range lead {
			sts[k], lios[k] = states[j], ios[j]
		}
		return a.AnalyzeAllCtx(context.TODO(), sts, lios)
	})
}

// defaultState returns benchmark b's default memory state: its
// DefaultCounts in the worst-case edge placement (paper §5.1), the state
// Analyzer.AnalyzeCounts would build.
func defaultState(b *bench3d.Benchmark) memstate.State {
	s, err := memstate.FromCounts(b.DefaultCounts, memstate.WorstCaseEdge(b.Spec.DRAM.NumBanks))
	if err != nil {
		panic(err) // every benchmark's default counts fit its own dies
	}
	return s
}

// lutFor returns a cached IR-drop look-up table for spec, a prepared
// design of benchmark b, building it exactly once even under concurrent
// misses.
func (r *Runner) lutFor(b *bench3d.Benchmark, spec *pdn.Spec) (*lut.Table, error) {
	return r.luts.Do(context.TODO(), speckey.Spec(spec, b.LogicFor(spec) != nil), nil, func() (*lut.Table, error) {
		a, err := r.analyzer(b, spec)
		if err != nil {
			return nil, err
		}
		return lut.BuildWith(a, memstate.MaxInterleavedBanks, lut.DefaultIOLevels(), r.Cfg.Workers)
	})
}

// fit returns the named benchmark's co-optimizer with its regression
// models fitted, fitting each benchmark exactly once even under
// concurrent misses. The optimizer is only read afterwards (Best and
// Baseline verify on fresh analyzers), so callers may share it.
func (r *Runner) fit(benchName string) (*opt.Optimizer, error) {
	return r.fits.Do(context.TODO(), benchName, nil, func() (*opt.Optimizer, error) {
		b, err := bench3d.ByName(benchName)
		if err != nil {
			return nil, err
		}
		o := &opt.Optimizer{Bench: b, MeshPitch: r.Cfg.MeshPitch, Workers: r.Cfg.Workers, Obs: r.Cfg.Obs}
		if err := o.FitModels(); err != nil {
			return nil, err
		}
		return o, nil
	})
}

// policyRun simulates one (policy, scheduler) pair on a fresh workload,
// over benchmark b's stack geometry and memory channels.
func (r *Runner) policyRun(b *bench3d.Benchmark, table *lut.Table,
	policy memctrl.IRPolicy, sched memctrl.Scheduler, irLimitV float64) (*memctrl.Result, error) {

	cfg := memctrl.DefaultConfig(policy, sched, table, irLimitV)
	cfg.Dies = b.Spec.NumDRAM
	cfg.BanksPerDie = b.Spec.DRAM.NumBanks
	cfg.Channels = b.Channels
	cfg.ChannelOf = b.ChannelOf
	wl := memctrl.DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
	wl.Requests = r.requests()
	reqs, err := memctrl.Generate(wl)
	if err != nil {
		return nil, err
	}
	return memctrl.Simulate(cfg, reqs)
}
