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
	"pdn3d/internal/par"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
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
	// Workers bounds the sweep worker pool (and each solver's kernel
	// pool). <= 0 selects GOMAXPROCS. Outputs are identical for every
	// value.
	Workers int
	// Obs, when non-nil, receives run metrics and, on its run trace, a
	// span per experiment: mesh/solver instrumentation from the layers
	// below, sweep pool metrics under "exp.sweep.*", and analyzer/LUT
	// cache hit rates. Results are identical with or without it.
	Obs *obs.Registry
}

// Runner executes experiments, caching mesh topologies, analyzers, and
// look-up tables across experiments that share a design. It is safe for
// concurrent use: cache misses on the same design are deduplicated so each
// topology, analyzer, and table is built exactly once. Analyzers are built
// over the shared topology cache, so a value-only sweep (metal-usage
// studies, co-optimization candidates) freezes the mesh shape once and
// restamps conductances per design point.
type Runner struct {
	Cfg Config

	topos     par.Cache[*rmesh.Topology]
	analyzers par.Cache[*irdrop.Analyzer]
	luts      par.Cache[*lut.Table]
	sweeps    *obs.SweepMetrics
}

// NewRunner returns a Runner with the given fidelity configuration.
func NewRunner(cfg Config) *Runner {
	r := &Runner{Cfg: cfg}
	reg := cfg.Obs
	r.sweeps = reg.SweepMetrics("exp.sweep")
	r.topos.Hits = reg.Counter("exp.topo_cache.hits")
	r.topos.Misses = reg.Counter("exp.topo_cache.misses")
	r.analyzers.Hits = reg.Counter("exp.analyzer_cache.hits")
	r.analyzers.Misses = reg.Counter("exp.analyzer_cache.misses")
	r.luts.Hits = reg.Counter("exp.lut_cache.hits")
	r.luts.Misses = reg.Counter("exp.lut_cache.misses")
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

// specKey fingerprints a design for the analyzer/LUT caches. The
// implementation lives in internal/speckey so the serving layer's result
// cache shares the exact same key contract.
func specKey(s *pdn.Spec, withLogic bool) string {
	return speckey.Spec(s, withLogic)
}

// topology returns the cached frozen mesh topology for the prepared spec,
// building it exactly once even under concurrent misses. Specs differing
// only in metal-usage magnitudes share one entry.
func (r *Runner) topology(spec *pdn.Spec) (*rmesh.Topology, error) {
	return r.topos.Do(context.TODO(), speckey.Topology(spec), nil, func() (*rmesh.Topology, error) {
		return rmesh.BuildTopologyObs(spec, r.Cfg.Obs)
	})
}

// analyzer returns a cached analyzer for the prepared spec, building it
// exactly once even under concurrent misses. The mesh is restamped over
// the shared topology cache — bit-identical to a full build, but value
// sweeps over one design shape skip the geometry and symbolic work.
func (r *Runner) analyzer(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel) (*irdrop.Analyzer, error) {
	return r.analyzers.Do(context.TODO(), specKey(spec, logic != nil), nil, func() (*irdrop.Analyzer, error) {
		t, err := r.topology(spec)
		if err != nil {
			return nil, err
		}
		a, err := irdrop.NewFromTopologyObs(t, spec, dram, logic, r.Cfg.Obs)
		if err != nil {
			return nil, err
		}
		a.Opts.Workers = r.Cfg.Workers
		return a, nil
	})
}

// lutFor returns a cached IR-drop look-up table for the prepared spec,
// building it exactly once even under concurrent misses.
func (r *Runner) lutFor(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel) (*lut.Table, error) {
	return r.luts.Do(context.TODO(), specKey(spec, logic != nil), nil, func() (*lut.Table, error) {
		a, err := r.analyzer(spec, dram, logic)
		if err != nil {
			return nil, err
		}
		return lut.BuildWith(a, memstate.MaxInterleavedBanks, lut.DefaultIOLevels(), r.Cfg.Workers)
	})
}

// policyRun simulates one (policy, scheduler) pair on a fresh workload.
func (r *Runner) policyRun(b *bench3d.Benchmark, table *lut.Table,
	policy memctrl.IRPolicy, sched memctrl.Scheduler, irLimitV float64) (*memctrl.Result, error) {

	cfg := memctrl.DefaultConfig(policy, sched, table, irLimitV)
	cfg.Dies = b.Spec.NumDRAM
	cfg.BanksPerDie = b.Spec.DRAM.NumBanks
	wl := memctrl.DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
	wl.Requests = r.requests()
	reqs, err := memctrl.Generate(wl)
	if err != nil {
		return nil, err
	}
	return memctrl.Simulate(cfg, reqs)
}
