package rmesh_test

import (
	"math"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/rmesh"
)

// G·(VDD·1) = BaseRHS: the supply ties are the only conductances to the
// folded reference, so a mesh held uniformly at VDD carries no current
// except through them. The IR-space solves behind the look-up table rest
// on this identity (IR = VDD·1 − v = G⁻¹·i_loads, irdrop.ResponseCtx).
// Any other grounded element — a leakage path or decap to ground — breaks
// it, and the IR-space right-hand side would then need that element's
// VDD term too.
func TestUniformSupplyIsBaseRHS(t *testing.T) {
	benches, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			m, err := rmesh.Build(b.Spec)
			if err != nil {
				t.Fatal(err)
			}
			uniform := make([]float64, m.N())
			for i := range uniform {
				uniform[i] = m.VDD
			}
			got := make([]float64, m.N())
			m.Matrix.MulVec(got, uniform)
			var worst, scale float64
			for i, want := range m.BaseRHS() {
				worst = math.Max(worst, math.Abs(got[i]-want))
				scale = math.Max(scale, math.Abs(want))
			}
			// Measured: at most 6.5e-13 against |BaseRHS| up to 587.
			if worst > 1e-12*scale {
				t.Errorf("|G·(VDD·1) − BaseRHS| = %.3g, want <= 1e-12 × %.3g", worst, scale)
			}
		})
	}
}

// SumMaxIR is the largest DieMaxIR of the materialized sum: logic and
// interface-RDL nodes do not count, and terms add in order.
func TestSumMaxIRMatchesMaterializedSum(t *testing.T) {
	b, err := bench3d.StackedDDR3On()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Clone()
	spec.MeshPitch = 0.5
	m, err := rmesh.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([][]float64, 3)
	for k := range terms {
		terms[k] = make([]float64, m.N())
		for i := range terms[k] {
			terms[k][i] = math.Sin(float64((k+1)*i)) * 1e-3
		}
	}
	// A logic-die spike above every DRAM node must not count.
	for _, l := range m.Layers {
		if l.Die == rmesh.DieLogic {
			terms[0][l.Offset] = 1
		}
	}
	sum := make([]float64, m.N())
	for _, term := range terms {
		for i, v := range term {
			sum[i] += v
		}
	}
	var want float64
	for d := 0; d < spec.NumDRAM; d++ {
		want = math.Max(want, m.DieMaxIR(sum, d))
	}
	if got := m.SumMaxIR(terms); got != want {
		t.Errorf("SumMaxIR = %.17g, want %.17g", got, want)
	}
}
