package solve

import "math"

// Summation order of the CG reductions. Below kernelMinN entries, dot and
// axpyNormSq add in one plain loop; from kernelMinN up they sum
// kernelBlock-entry blocks and add the partial sums in block order, on
// one goroutine and with no allocation. The order depends only on the
// vector length, so every answer is a pure function of the system, and
// it is the order every pinned answer was computed in
// (irdrop.TestAnswersBitStable, BENCH_solver.json's iteration counts).
// axpy, xpby and SpMV are element-wise and do not depend on order.
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
