package irdrop_test

import (
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/solve"
)

// balanceBound is the largest relative Kirchhoff balance error an answer
// may carry at the analyzer's default tolerance. Measured answers reach
// 4.4e-8 on the paper designs and 1.1e-7 on the 76,048-node mesh: CG's
// residual target is relative to the tie currents, some 10⁴ times the
// load current.
const balanceBound = 1e-6

// checkBalance analyzes the idle, top-die and all-dies states of a
// design under method and holds each answer's balance to balanceBound.
func checkBalance(t *testing.T, b *bench3d.Benchmark, spec *pdn.Spec, method string) {
	t.Helper()
	logic := b.LogicPower
	if !spec.OnLogic {
		logic = nil
	}
	a, err := irdrop.New(spec, b.DRAMPower, logic)
	if err != nil {
		t.Fatal(err)
	}
	a.Opts.Method = method
	n := spec.NumDRAM
	idle, top, all := make([]int, n), make([]int, n), make([]int, n)
	top[n-1] = 2
	for d := range all {
		all[d] = 2
	}
	for _, counts := range [][]int{idle, top, all} {
		st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(spec.DRAM.NumBanks))
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.Analyze(st, b.DefaultIO)
		if err != nil {
			t.Fatal(err)
		}
		if !(r.Balance > 0 && r.Balance <= balanceBound) {
			t.Errorf("%s %s state %s: balance %.3g, want in (0, %g]", spec.Name, method, st, r.Balance, balanceBound)
		}
	}
}

// TestAnswersBalanceKirchhoff: the current the supply ties deliver matches
// the current the loads draw on every answer — the four paper designs
// under both methods, and the 76,048-node ddr3-off mesh under the method
// the size rule picks for it.
func TestAnswersBalanceKirchhoff(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		for _, method := range []string{solve.MethodCGIC0, solve.MethodCGAMG} {
			checkBalance(t, b, b.Spec, method)
		}
	}
	if testing.Short() || raceEnabled {
		t.Log("skipping the 76,048-node mesh under -short and -race")
		return
	}
	b, err := bench3d.StackedDDR3Off()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.07
	checkBalance(t, b, spec, "")
}
