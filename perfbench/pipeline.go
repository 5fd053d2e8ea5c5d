package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
)

// withPitch clones spec, overriding its mesh pitch when pitch > 0.
func withPitch(spec *pdn.Spec, pitch float64) *pdn.Spec {
	s := spec.Clone()
	if pitch > 0 {
		s.MeshPitch = pitch
	}
	return s
}

// coldSetup takes a design from nothing to the first answerable state:
// topology freeze, value stamp, and solver set-up.
func coldSetup(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel) (*irdrop.Analyzer, error) {
	topo, err := rmesh.BuildTopology(spec)
	if err != nil {
		return nil, err
	}
	a, err := irdrop.NewFromTopology(topo, spec, dram, logic)
	if err != nil {
		return nil, err
	}
	_, err = a.Model.Solver(a.Opts)
	return a, err
}

// timedSetup is the seconds one coldSetup takes.
func timedSetup(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel) (float64, error) {
	t0 := time.Now()
	_, err := coldSetup(spec, dram, logic)
	return since(t0), err
}

// tracedSetup is coldSetup with each public call timed, recording the
// rmesh and solver set-up rows into L. Only the topology build reports
// into a registry, for its RCM reorder timer.
func tracedSetup(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel, L map[string]float64) (*irdrop.Analyzer, error) {
	reg := obs.NewRegistry()
	t0 := time.Now()
	topo, err := rmesh.BuildTopologyObs(spec, reg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	a, err := irdrop.NewFromTopology(topo, spec, dram, logic)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if _, err := a.Model.Solver(a.Opts); err != nil {
		return nil, err
	}
	t3 := time.Now()
	L["rmesh.topology_ms"] = millis(t1.Sub(t0))
	L["rmesh.reorder_ms"] = timerMeanMS(reg.Snapshot(), "rmesh.reorder_time")
	L["rmesh.newmodel_ms"] = millis(t2.Sub(t1))
	L["solve.setup_ms"] = millis(t3.Sub(t2))
	L["stage.rmesh_s"] = seconds(t2.Sub(t0))
	L["stage.solve_setup_s"] = seconds(t3.Sub(t2))
	return a, nil
}

// call is one analysis driven layer by layer, in seconds per stage.
type call struct {
	stamp, solve, post float64
	iterations         int
}

// tracedAnalyze is Analyzer.Analyze for the worst-case placement of
// counts, driven through the public layer calls so each stage is timed:
// the load stamp (irdrop), the nodal solve (rmesh/solve), and the IR
// post-processing. The answer is bit-identical to Analyze's. It returns
// the per-die maximum IR drops in volts.
func tracedAnalyze(a *irdrop.Analyzer, counts []int, io float64) (call, []float64, error) {
	var c call
	st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(a.Spec().DRAM.NumBanks))
	if err != nil {
		return c, nil, err
	}
	t0 := time.Now()
	rhs, err := a.LoadedRHS(st, io)
	if err != nil {
		return c, nil, err
	}
	t1 := time.Now()
	v, stats, err := a.Model.Solve(rhs, a.Opts)
	if err != nil {
		return c, nil, err
	}
	t2 := time.Now()
	ir := a.Model.IRDrop(v)
	perDie := make([]float64, a.Spec().NumDRAM)
	for d := range perDie {
		perDie[d] = a.Model.DieMaxIR(ir, d)
	}
	c.stamp, c.solve, c.post = seconds(t1.Sub(t0)), seconds(t2.Sub(t1)), since(t2)
	c.iterations = stats.Iterations
	return c, perDie, nil
}

// callRows records the per-call layer rows of a set of traced analyses
// and their stage shares: each stage's busy time over the workers that
// ran them in parallel.
func callRows(L map[string]float64, calls []call, workers int) {
	var stamp, solve, post, iters []float64
	for _, c := range calls {
		stamp = append(stamp, c.stamp*1000)
		solve = append(solve, c.solve*1000)
		post = append(post, c.post*1000)
		iters = append(iters, float64(c.iterations))
	}
	L["irdrop.stamp_ms"] = median(stamp)
	L["irdrop.post_ms"] = median(post)
	L["solve.solve_ms"] = median(solve)
	L["solve.solve_p90_ms"] = percentile(solve, 0.9)
	L["solve.iterations"] = mean(iters)
	L["solve.calls"] = float64(len(calls))
	w := float64(workers)
	L["stage.stamp_s"] = sum(stamp) / 1000 / w
	L["stage.solve_s"] = sum(solve) / 1000 / w
	L["stage.post_s"] = sum(post) / 1000 / w
}

// maxOf is the largest of xs (0 for none).
func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// countsString renders per-die counts in the paper's "R1-R2-...-Rn" form.
func countsString(counts []int) string {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, "-")
}

// renderIR renders one analysis answer: state, I/O activity, stack
// maximum and per-die maxima in mV.
func renderIR(counts []int, io float64, perDie []float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %g %.4f", countsString(counts), io, maxOf(perDie)*1000)
	for _, v := range perDie {
		fmt.Fprintf(&sb, " %.4f", v*1000)
	}
	return sb.String()
}

// Registry readers for the timers and counters the program already
// exposes. Solver metrics are rooted per method ("solve.<method>.*"), so
// they are summed over every method present.

func timerMeanMS(s obs.Snapshot, name string) float64 {
	t, ok := s.Timers[name]
	if !ok || t.Count == 0 {
		return 0
	}
	return t.Seconds * 1000 / float64(t.Count)
}

func sumTimers(s obs.Snapshot, prefix, suffix string) (secs float64, count int64) {
	for name, t := range s.Timers {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			secs += t.Seconds
			count += t.Count
		}
	}
	return secs, count
}

func sumCounters(s obs.Snapshot, prefix, suffix string) int64 {
	var n int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

// registryRows records the layer rows a registry exposes: mesh build,
// reorder and restamp timers, and the per-method solver timers and
// counters. Solve time here is a per-call mean; the registry keeps no
// per-call distribution.
func registryRows(L map[string]float64, s obs.Snapshot) {
	L["rmesh.topology_ms"] = timerMeanMS(s, "rmesh.build_time")
	L["rmesh.reorder_ms"] = timerMeanMS(s, "rmesh.reorder_time")
	L["rmesh.newmodel_ms"] = timerMeanMS(s, "rmesh.restamp_time")
	if secs, n := sumTimers(s, "solve.", ".setup_time"); n > 0 {
		L["solve.setup_ms"] = secs * 1000 / float64(n)
	}
	if secs, n := sumTimers(s, "solve.", ".solve_time"); n > 0 {
		L["solve.solve_ms"] = secs * 1000 / float64(n)
	}
	solves := sumCounters(s, "solve.", ".solves")
	if solves > 0 {
		L["solve.iterations"] = float64(sumCounters(s, "solve.", ".iterations_total")) / float64(solves)
	}
	L["solve.calls"] = float64(solves)
}
