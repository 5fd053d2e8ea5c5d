// Package pdn3d is a design, packaging, and architectural-policy
// co-optimization platform for DC power integrity in 3D DRAM — a
// from-scratch reproduction of Peng et al., "Design, Packaging, and
// Architectural Policy Co-optimization for DC Power Integrity in 3D DRAM"
// (DAC 2015).
//
// The platform models complete 3D DRAM power-delivery networks (stacked
// DDR3 on/off-chip, Wide I/O, HMC) as resistive meshes, solves them for
// DC IR drop, simulates a cycle-accurate memory controller with
// IR-drop-aware read policies, and co-optimizes design/packaging/policy
// options under IR-drop / cost / performance tradeoffs.
//
// This file is the public facade: it re-exports the load-bearing types and
// constructors from the internal packages so applications can be written
// against one import. The examples/ directory holds runnable entry points;
// cmd/tables regenerates every table and figure of the paper.
package pdn3d

import (
	"pdn3d/internal/bench3d"
	"pdn3d/internal/cost"
	"pdn3d/internal/exp"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/lut"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/memstate"
	"pdn3d/internal/opt"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/report"
	"pdn3d/internal/transient"
)

// Core design and analysis types.
type (
	// Spec is a complete 3D DRAM PDN design specification.
	Spec = pdn.Spec
	// Benchmark is one of the four Table 1 benchmark designs.
	Benchmark = bench3d.Benchmark
	// Analyzer runs IR-drop analyses on a design.
	Analyzer = irdrop.Analyzer
	// AnalysisResult is one IR-drop analysis outcome.
	AnalysisResult = irdrop.Result
	// MemState is a memory state (active banks per die).
	MemState = memstate.State
	// LUT is the IR-drop look-up table driving the IR-aware policies.
	LUT = lut.Table
	// ControllerConfig parameterizes the memory controller simulator.
	ControllerConfig = memctrl.Config
	// ControllerResult reports one controller simulation.
	ControllerResult = memctrl.Result
	// Request is one read request.
	Request = memctrl.Request
	// CostModel is the Table 8 cost model.
	CostModel = cost.Model
	// Optimizer runs the cross-domain co-optimization.
	Optimizer = opt.Optimizer
	// Candidate is one point in the co-optimization design space.
	Candidate = opt.Candidate
	// OptResult is one optimized design point.
	OptResult = opt.Result
	// ExperimentRunner regenerates the paper's tables and figures.
	ExperimentRunner = exp.Runner
	// ExperimentConfig tunes experiment fidelity.
	ExperimentConfig = exp.Config
	// Table is a rendered result table.
	Table = report.Table
	// Series is a rendered result curve set.
	Series = report.Series
	// DRAMPowerModel maps memory states to spatial power.
	DRAMPowerModel = powermap.DRAMModel
	// LogicPowerModel models the host logic die's power.
	LogicPowerModel = powermap.LogicModel
)

// Design/packaging option enums.
const (
	// F2B is conventional face-to-back stacking.
	F2B = pdn.F2B
	// F2F is face-to-face stacking of die pairs with B2B between pairs.
	F2F = pdn.F2F
	// CenterTSV groups PG TSVs in the die center.
	CenterTSV = pdn.CenterTSV
	// EdgeTSV places PG TSVs along the die edges.
	EdgeTSV = pdn.EdgeTSV
	// DistributedTSV spreads PG TSVs between banks (HMC style).
	DistributedTSV = pdn.DistributedTSV
	// RDLNone, RDLInterface, RDLAll select redistribution layers.
	RDLNone      = pdn.RDLNone
	RDLInterface = pdn.RDLInterface
	RDLAll       = pdn.RDLAll
)

// Controller policy enums.
const (
	// PolicyStandard is the JEDEC tRRD/tFAW policy.
	PolicyStandard = memctrl.PolicyStandard
	// PolicyIRAware is the look-up-table IR-drop-aware policy.
	PolicyIRAware = memctrl.PolicyIRAware
	// FCFS schedules oldest-first.
	FCFS = memctrl.FCFS
	// DistR balances reads across dies.
	DistR = memctrl.DistR
)

// LoadBenchmark returns a named benchmark: "ddr3-off", "ddr3-on",
// "wideio", or "hmc".
func LoadBenchmark(name string) (*Benchmark, error) { return bench3d.ByName(name) }

// AllBenchmarks returns the four Table 1 benchmarks.
func AllBenchmarks() ([]*Benchmark, error) { return bench3d.All() }

// NewAnalyzer builds the R-Mesh analyzer for a design. logicPower may be
// nil for off-chip designs or to leave the host die unloaded.
func NewAnalyzer(spec *Spec, dramPower *DRAMPowerModel, logicPower *LogicPowerModel) (*Analyzer, error) {
	return irdrop.New(spec, dramPower, logicPower)
}

// BuildLUT precomputes the IR-drop look-up table for the IR-aware read
// policies (≤ maxBanksPerDie open banks per die, the default I/O levels),
// using one worker per CPU.
func BuildLUT(a *Analyzer, maxBanksPerDie int) (*LUT, error) {
	return lut.BuildWith(a, maxBanksPerDie, lut.DefaultIOLevels(), 0)
}

// NewControllerConfig returns the paper's controller setup for the given
// policy and scheduler.
func NewControllerConfig(policy memctrl.IRPolicy, sched memctrl.Scheduler, table *LUT, irLimitV float64) ControllerConfig {
	return memctrl.DefaultConfig(policy, sched, table, irLimitV)
}

// GenerateReads produces the paper's synthetic workload (10 000 reads,
// 80 % row locality) for the given stack geometry.
func GenerateReads(dies, banksPerDie, n int, seed int64) ([]Request, error) {
	cfg := memctrl.DefaultWorkload(dies, banksPerDie)
	if n > 0 {
		cfg.Requests = n
	}
	cfg.Seed = seed
	return memctrl.Generate(cfg)
}

// SimulateController runs a read stream through the controller.
func SimulateController(cfg ControllerConfig, reqs []Request) (*ControllerResult, error) {
	return memctrl.Simulate(cfg, reqs)
}

// StateFromCounts builds a memory state "R1-R2-...-Rn" with the paper's
// worst-case edge bank placement.
func StateFromCounts(counts []int, banksPerDie int) (MemState, error) {
	return memstate.FromCounts(counts, memstate.WorstCaseEdge(banksPerDie))
}

// ParseState parses "0-0-0-2" into per-die counts.
func ParseState(s string) ([]int, error) { return memstate.ParseCounts(s) }

// DefaultCostModel returns the Table 8 cost model.
func DefaultCostModel() *CostModel { return cost.Default() }

// NewExperimentRunner returns a runner that regenerates the paper's tables
// and figures at the given fidelity.
func NewExperimentRunner(cfg ExperimentConfig) *ExperimentRunner { return exp.NewRunner(cfg) }

// Transient (AC) extension re-exports: RLC droop analysis with off-chip
// decaps (internal/transient; the paper's §4.1 AC remark).
type (
	// TransientConfig parameterizes the RLC transient model.
	TransientConfig = transient.Config
	// TransientSim steps C·dv/dt + G·v = i(t) with backward Euler.
	TransientSim = transient.Sim
	// Decap is a series-RC decoupling branch to the ideal supply.
	Decap = transient.Decap
)

// DefaultTransientConfig returns plausible transient constants.
func DefaultTransientConfig() TransientConfig { return transient.DefaultConfig() }

// NewTransient prepares a droop simulation on an analyzer's model starting
// from the DC solution of rhsInit (see Analyzer.LoadedRHS).
func NewTransient(a *Analyzer, cfg TransientConfig, rhsInit []float64) (*TransientSim, error) {
	return transient.New(a.Model, cfg, rhsInit)
}
