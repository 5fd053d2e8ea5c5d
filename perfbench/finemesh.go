package main

import (
	"math/rand"
	"time"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
)

// fineIO is the per-die I/O activity of every fine-mesh analysis.
const fineIO = 1.0

// fineStatePool is every interleaving memory state of the 4-die stack
// with at least one active bank: the pool fine-mesh draws from and the
// golden file covers.
func fineStatePool() [][]int {
	var pool [][]int
	for _, counts := range memstate.EnumerateCounts(4, memstate.MaxInterleavedBanks) {
		for _, n := range counts {
			if n > 0 {
				pool = append(pool, counts)
				break
			}
		}
	}
	return pool
}

// fineStates draws n distinct states from the pool; the same seed gives
// the same states in the same order.
func fineStates(seed int64, n int) [][]int {
	pool := fineStatePool()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, 0, n)
	for _, i := range rng.Perm(len(pool))[:n] {
		out = append(out, pool[i])
	}
	return out
}

// fineMesh is the large-mesh iterative regime: ddr3-off at a fine pitch
// (76,048 nodes at 0.07 mm), one cold topology and analyzer, then a few
// seeded memory states. Each repetition's set-up (topology, restamp,
// solver set-up) is one set-up sample.
func fineMesh(c *config, o *outcome) error {
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		return err
	}
	spec := withPitch(b.Spec, c.finePitch)
	states := fineStates(c.seed, c.states)
	c.repeat(o, func() (repetition, error) {
		L := map[string]float64{}
		answers := make([]string, len(states))
		var calls []call
		t0 := time.Now()
		var a *irdrop.Analyzer
		var err error
		if c.trace {
			a, err = tracedSetup(spec, b.DRAMPower, nil, L)
		} else {
			a, err = coldSetup(spec, b.DRAMPower, nil)
		}
		if err != nil {
			return repetition{}, err
		}
		o.setup = append(o.setup, since(t0))
		errs := make([]error, len(states))
		for i, counts := range states {
			var perDie []float64
			if c.trace {
				var cl call
				cl, perDie, errs[i] = tracedAnalyze(a, counts, fineIO)
				calls = append(calls, cl)
			} else {
				var res *irdrop.Result
				if res, errs[i] = a.AnalyzeCounts(counts, fineIO); errs[i] == nil {
					perDie = res.PerDie
				}
			}
			if errs[i] == nil {
				answers[i] = renderIR(counts, fineIO, perDie)
			}
		}
		wall := since(t0)
		for i := range states {
			if errs[i] == nil {
				errs[i] = c.check.line("fine-mesh/states", 2, answers[i])
			}
			o.op(errs[i])
		}
		if !c.trace {
			return repetition{wall: wall}, nil
		}
		callRows(L, calls, 1)
		closeStages(L, wall)
		return repetition{wall: wall, layers: L}, nil
	})
	return nil
}
