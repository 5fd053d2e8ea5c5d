package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// refMulVec is CSR.MulVec's loop before sliced rows, kept verbatim apart
// from its name: the row sums in column order every MulVec must match
// bit for bit.
func refMulVec(m *CSR, y, x []float64) {
	for i := range y {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * x[m.Col[p]]
		}
		y[i] = s
	}
}

// TestMulVecMatchesReference runs MulVec against refMulVec on random
// matrices with empty rows, rows of one entry and long rows, comparing
// the bits of every entry.
func TestMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, sz := range []struct{ n, k int }{{1, 1}, {5, 0}, {7, 20}, {64, 900}, {500, 4000}} {
		m := randomStream(rng, sz.n, sz.k).Compress()
		x := make([]float64, sz.n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := make([]float64, sz.n), make([]float64, sz.n)
		m.MulVec(got, x)
		refMulVec(m, want, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d stamps=%d: y[%d] = %v, reference %v", sz.n, sz.k, i, got[i], want[i])
			}
		}
	}
}
