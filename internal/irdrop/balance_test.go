package irdrop_test

import (
	"context"
	"slices"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/solve"
)

// balanceBound is the largest relative Kirchhoff balance error an answer
// may carry at the analyzer's default tolerance. Measured answers reach
// 4.4e-8 on the paper designs and 1.1e-7 on the 76,048-node mesh: CG's
// residual target is relative to the tie currents, some 10⁴ times the
// load current.
const balanceBound = 1e-6

// designAnalyzer builds an analyzer for spec, a prepared design of
// benchmark b, with b's logic load when spec puts it on the stack.
func designAnalyzer(t *testing.T, b *bench3d.Benchmark, spec *pdn.Spec) *irdrop.Analyzer {
	t.Helper()
	logic := b.LogicPower
	if !spec.OnLogic {
		logic = nil
	}
	a, err := irdrop.New(spec, b.DRAMPower, logic)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// threeStates are spec's idle, top-die and all-dies states: two banks on
// each active die, placed at the worst-case edge.
func threeStates(t *testing.T, spec *pdn.Spec) []memstate.State {
	t.Helper()
	n := spec.NumDRAM
	idle, top, all := make([]int, n), make([]int, n), make([]int, n)
	top[n-1] = 2
	for d := range all {
		all[d] = 2
	}
	var out []memstate.State
	for _, counts := range [][]int{idle, top, all} {
		st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(spec.DRAM.NumBanks))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// checkBalance analyzes the three states of a design under method and
// holds each answer's balance to balanceBound.
func checkBalance(t *testing.T, b *bench3d.Benchmark, spec *pdn.Spec, method string) {
	t.Helper()
	a := designAnalyzer(t, b, spec)
	a.Opts.Method = method
	for _, st := range threeStates(t, spec) {
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

// TestTermResponsesBalanceKirchhoff: each unit-term response the look-up
// table sums, solved in IR space, carries its Kirchhoff balance on its
// solve record (what /debug/solves shows for a /v1/lut build), within
// balanceBound on the four paper designs: a summed entry is then correct
// physics, not only correct arithmetic.
func TestTermResponsesBalanceKirchhoff(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		logic := b.LogicPower
		if !b.Spec.OnLogic {
			logic = nil
		}
		a, err := irdrop.New(b.Spec, b.DRAMPower, logic)
		if err != nil {
			t.Fatal(err)
		}
		a.SolveRecords = obs.NewSolveBuffer(4)
		top := b.Spec.NumDRAM - 1
		terms := []irdrop.Term{
			{Kind: irdrop.TermStandby},
			{Kind: irdrop.TermIO, Die: top},
			{Kind: irdrop.TermBank, Die: top, Bank: b.Spec.DRAM.NumBanks - 1},
		}
		if logic != nil {
			terms = append(terms, irdrop.Term{Kind: irdrop.TermLogic})
		}
		for _, term := range terms {
			r, err := a.ResponseCtx(context.Background(), term)
			if err != nil {
				t.Fatal(err)
			}
			recent, _, _ := a.SolveRecords.Snapshot()
			bal := recent[0].Balance
			if !(bal > 0 && bal <= balanceBound) {
				t.Errorf("%s %s response: balance %.3g, want in (0, %g]", b.Name, term, bal, balanceBound)
			}
			if slices.Max(r) <= 0 {
				t.Errorf("%s %s response draws no IR drop", b.Name, term)
			}
			t.Logf("%s %s: balance %.2g", b.Name, term, bal)
		}
	}
}
