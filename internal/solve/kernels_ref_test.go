package solve

import (
	"math"
	"math/rand"
	"testing"

	"pdn3d/internal/sparse"
)

// refApply is ICPreconditioner.Apply before register forwarding and
// sliced rows, kept verbatim apart from its name: the plain row-by-row
// substitution every Apply and Apply4 lane must match bit for bit.
func refApply(p *ICPreconditioner, z, r []float64) {
	// Forward: L·y = r.
	for i := 0; i < p.n; i++ {
		s := r[i]
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			s -= p.val[q] * z[p.col[q]]
		}
		z[i] = s / p.diag[i]
	}
	// Backward: Lᵀ·z = y (in place, traversing rows in reverse and
	// scattering into earlier entries).
	for i := p.n - 1; i >= 0; i-- {
		z[i] /= p.diag[i]
		zi := z[i]
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			z[p.col[q]] -= p.val[q] * zi
		}
	}
}

// refApply4 is Apply4 before register forwarding and sliced rows, kept
// verbatim apart from its name.
func refApply4(p *ICPreconditioner, z, r [LockstepWidth][]float64) {
	n := p.n
	z0, z1, z2, z3 := z[0][:n], z[1][:n], z[2][:n], z[3][:n]
	r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
	for i := 0; i < n; i++ {
		s0, s1, s2, s3 := r0[i], r1[i], r2[i], r3[i]
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			c, v := p.col[q], p.val[q]
			s0 -= v * z0[c]
			s1 -= v * z1[c]
			s2 -= v * z2[c]
			s3 -= v * z3[c]
		}
		d := p.diag[i]
		z0[i], z1[i], z2[i], z3[i] = s0/d, s1/d, s2/d, s3/d
	}
	for i := n - 1; i >= 0; i-- {
		d := p.diag[i]
		zi0, zi1, zi2, zi3 := z0[i]/d, z1[i]/d, z2[i]/d, z3[i]/d
		z0[i], z1[i], z2[i], z3[i] = zi0, zi1, zi2, zi3
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			c, v := p.col[q], p.val[q]
			z0[c] -= v * zi0
			z1[c] -= v * zi1
			z2[c] -= v * zi2
			z3[c] -= v * zi3
		}
	}
}

// refMulVec4 is mulVec4 before sliced rows, kept verbatim apart from its
// name.
func refMulVec4(a *sparse.CSR, y, x [LockstepWidth][]float64) {
	n := a.N
	y0, y1, y2, y3 := y[0][:n], y[1][:n], y[2][:n], y[3][:n]
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	for i := 0; i < n; i++ {
		var s0, s1, s2, s3 float64
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			c, v := a.Col[q], a.Val[q]
			s0 += v * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
			s3 += v * x3[c]
		}
		y0[i], y1[i], y2[i], y3[i] = s0, s1, s2, s3
	}
}

// forwardingSPD builds a random structurally symmetric SPD conductance
// matrix whose lower-triangle rows take all three shapes the forwarded
// sweeps branch on: last lower column i−1, last lower column below i−1,
// and no lower entries at all. Values are random, so a term applied out
// of order changes the rounding.
func forwardingSPD(n int, rng *rand.Rand) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddToGround(i, 0.05+rng.Float64())
		switch i % 3 {
		case 0: // no lower entries of its own (a later row may still link up)
		case 1:
			b.AddConductance(i, i-1, 0.1+rng.Float64())
		case 2:
			for k := 0; k < 3 && i-2-k >= 0; k++ {
				b.AddConductance(i, rng.Intn(i-1), 0.1+rng.Float64())
			}
		}
	}
	return b.Compress()
}

// rowShapes counts the lower-triangle rows of a by the shape the
// forwarded sweeps branch on.
func rowShapes(a *sparse.CSR) (prev, other, none int) {
	for i := 0; i < a.N; i++ {
		last := -1
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if c := int(a.Col[q]); c < i {
				last = c
			}
		}
		switch {
		case last < 0:
			none++
		case last == i-1:
			prev++
		default:
			other++
		}
	}
	return prev, other, none
}

// namedCSR is one system the kernel reference tests run on.
type namedCSR struct {
	name string
	a    *sparse.CSR
}

// kernelMatrices are the systems the kernel reference tests run on:
// grid2D sizes from one node up, and the random forwarding matrix.
func kernelMatrices(t *testing.T) []namedCSR {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	fwd := forwardingSPD(600, rng)
	if prev, other, none := rowShapes(fwd); prev == 0 || other == 0 || none < 2 {
		t.Fatalf("forwardingSPD rows: %d end at i-1, %d elsewhere, %d empty; want every shape", prev, other, none)
	}
	return []namedCSR{
		{"grid1x1", grid2D(1, 1)},
		{"grid2x3", grid2D(2, 3)},
		{"grid17x9", grid2D(17, 9)},
		{"grid40x40", grid2D(40, 40)},
		{"forward", fwd},
	}
}

// kernelVecs returns k random vectors of length n, a few of them exactly
// zero or negative zero in places.
func kernelVecs(rng *rand.Rand, k, n int) [][]float64 {
	out := make([][]float64, k)
	for j := range out {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(10) {
			case 0:
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = rng.NormFloat64()
			}
		}
		out[j] = v
	}
	return out
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestICApplyMatchesReference pins Apply and Apply4 to the plain
// substitution bit for bit, on every lower-row shape, with a four-lane
// pass and with a pass of two live lanes padded by one shared zero
// vector (as lockstep.sweep pads it).
func TestICApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range kernelMatrices(t) {
		name, a := m.name, m.a
		ic, err := NewIC(a)
		if err != nil {
			t.Fatalf("%s: NewIC: %v", name, err)
		}
		n := a.N
		rs := kernelVecs(rng, LockstepWidth, n)
		want := make([][]float64, LockstepWidth)
		for j, r := range rs {
			want[j] = make([]float64, n)
			refApply(ic, want[j], r)
			got := make([]float64, n)
			ic.Apply(got, r)
			requireBits(t, name+" Apply", got, want[j])
		}
		var z, in, wz [LockstepWidth][]float64
		for j := range z {
			z[j], wz[j], in[j] = make([]float64, n), make([]float64, n), rs[j]
		}
		refApply4(ic, wz, in)
		ic.Apply4(z, in)
		for j := range z {
			requireBits(t, name+" Apply4", z[j], want[j])
			requireBits(t, name+" refApply4", wz[j], want[j])
		}

		zero := make([]float64, n)
		z = [LockstepWidth][]float64{make([]float64, n), make([]float64, n), zero, zero}
		in = [LockstepWidth][]float64{rs[0], rs[1], zero, zero}
		ic.Apply4(z, in)
		requireBits(t, name+" padded lane 0", z[0], want[0])
		requireBits(t, name+" padded lane 1", z[1], want[1])
		requireBits(t, name+" shared zero", zero, make([]float64, n))
	}
}

// TestMulVecMatchesReference pins MulVec and mulVec4 to the loops before
// sliced rows bit for bit, four lanes and a padded pass.
func TestMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, m := range kernelMatrices(t) {
		name, a := m.name, m.a
		n := a.N
		xs := kernelVecs(rng, LockstepWidth, n)
		var y, wy, in [LockstepWidth][]float64
		for j := range y {
			y[j], wy[j], in[j] = make([]float64, n), make([]float64, n), xs[j]
		}
		refMulVec4(a, wy, in)
		mulVec4(a, y, in)
		for j := range y {
			got := make([]float64, n)
			a.MulVec(got, xs[j])
			requireBits(t, name+" MulVec", got, wy[j])
			requireBits(t, name+" mulVec4", y[j], wy[j])
		}
		zero := make([]float64, n)
		y = [LockstepWidth][]float64{make([]float64, n), make([]float64, n), zero, zero}
		in = [LockstepWidth][]float64{xs[0], xs[1], zero, zero}
		mulVec4(a, y, in)
		requireBits(t, name+" padded lane 0", y[0], wy[0])
		requireBits(t, name+" padded lane 1", y[1], wy[1])
		requireBits(t, name+" shared zero", zero, make([]float64, n))
	}
}
