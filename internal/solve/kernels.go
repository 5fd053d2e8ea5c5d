package solve

import (
	"math"

	"pdn3d/internal/sparse"
)

// Summation order of the CG reductions. Below kernelMinN entries, dot and
// axpyNormSq add in one plain loop; from kernelMinN up they sum
// kernelBlock-entry blocks and add the partial sums in block order, on
// one goroutine and with no allocation. The order depends only on the
// vector length, so every answer is a pure function of the system, and
// it is the order every pinned answer was computed in
// (irdrop.TestAnswersBitStable, BENCH_solver.json's iteration counts).
// axpy, xpby and SpMV are element-wise and do not depend on order; the
// four-column SpMV (mulVec4) sums each lane's rows in MulVec's order.
const (
	kernelMinN  = 8192
	kernelBlock = 4096
)

// blockLen is the reduction block of an n-entry vector: the whole vector
// below kernelMinN, kernelBlock entries from there up. A single block
// adds its sum to zero, which leaves it bit-identical: a sum that starts
// at +0 is never −0.
func blockLen(n int) int {
	if n < kernelMinN {
		return n
	}
	return kernelBlock
}

// dot computes a·b.
func dot(a, b []float64) float64 {
	var s float64
	bl := blockLen(len(a))
	for lo := 0; lo < len(a); lo += bl {
		x := a[lo:min(lo+bl, len(a))]
		y := b[lo : lo+len(x)]
		var p float64
		for i := range x {
			p += x[i] * y[i]
		}
		s += p
	}
	return s
}

// norm2 computes ‖a‖₂.
func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// axpy computes y += alpha·x.
func axpy(y []float64, alpha float64, x []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// axpyNormSq fuses the residual update r += alpha·ap with the squared-norm
// accumulation Σ r'² in a single pass, eliminating the separate norm2(r)
// sweep every CG iteration needs for its convergence check. It sums in
// dot's order.
func axpyNormSq(y []float64, alpha float64, x []float64) float64 {
	var s float64
	bl := blockLen(len(y))
	for lo := 0; lo < len(y); lo += bl {
		yb := y[lo:min(lo+bl, len(y))]
		xb := x[lo : lo+len(yb)]
		var p float64
		for i := range yb {
			yb[i] += alpha * xb[i]
			p += yb[i] * yb[i]
		}
		s += p
	}
	return s
}

// xpby computes p = z + beta·p (the CG direction update).
func xpby(p []float64, beta float64, z []float64) {
	z = z[:len(p)]
	for i := range p {
		p[i] = z[i] + beta*p[i]
	}
}

// mulVec4 computes y[j] = A·x[j] for four columns in one pass over A,
// walking each row through slices as MulVec does. Each lane sums its rows
// in MulVec's order, so it is bit-identical to a MulVec of its own.
func mulVec4(a *sparse.CSR, y, x [LockstepWidth][]float64) {
	n := a.N
	y0, y1, y2, y3 := y[0][:n], y[1][:n], y[2][:n], y[3][:n]
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	rp := a.RowPtr[:n+1]
	for i := 0; i < n; i++ {
		lo, hi := rp[i], rp[i+1]
		cs := a.Col[lo:hi]
		vs := a.Val[lo:hi][:len(cs)]
		var s0, s1, s2, s3 float64
		for q, c := range cs {
			v := vs[q]
			s0 += v * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
			s3 += v * x3[c]
		}
		y0[i], y1[i], y2[i], y3[i] = s0, s1, s2, s3
	}
}
