package irdrop_test

import (
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/solve"
)

// TestRDLAllAnswers: with a backside RDL on every die, wideio (20,200
// nodes) and hmc (17,622) answer at their default pitch, above the size
// rule's threshold, with every die below 100 mV. Without the top die's
// TSV leg its RDL floats, and cg-amg's coarse factorization fails.
func TestRDLAllAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("two meshes of ~20k nodes; long mode only")
	}
	for _, name := range []string{"wideio", "hmc"} {
		b, err := bench3d.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec.Clone()
		spec.RDL = pdn.RDLAll
		a, err := irdrop.New(spec, b.DRAMPower, b.LogicPower)
		if err != nil {
			t.Fatal(err)
		}
		if n := a.Model.N(); n < solve.AMGMinNodes {
			t.Fatalf("%s: %d nodes, below the cg-amg threshold %d", name, n, solve.AMGMinNodes)
		}
		st, err := memstate.FromCounts(b.DefaultCounts, memstate.WorstCaseEdge(spec.DRAM.NumBanks))
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.Analyze(st, b.DefaultIO)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for d, v := range append(r.PerDie, r.LogicIR) {
			if !(v > 0 && v < 0.1) {
				t.Errorf("%s die %d: IR drop %.2f mV, want in (0, 100)", name, d, v*1000)
			}
		}
	}
}
