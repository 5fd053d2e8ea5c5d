package solve

import (
	"fmt"
	"math"

	"pdn3d/internal/sparse"
)

// ICPreconditioner is a zero-fill incomplete Cholesky factorization
// M = L·Lᵀ of an SPD matrix, used to precondition CG. On the R-Mesh
// conductance systems it typically cuts the iteration count several-fold
// versus diagonal scaling.
type ICPreconditioner struct {
	n      int
	rowPtr []int32 // CSR of the strictly-lower triangle of L
	col    []int32
	val    []float64
	diag   []float64 // diagonal of L
}

// NewIC builds an IC(0) factorization of a. A zero, negative, NaN, or
// missing diagonal fails first with a typed *DegenerateDiagonalError, as
// in NewAMG. If a pivot collapses (the incomplete factorization of an SPD
// matrix can still break down), the factorization restarts with a
// progressively larger diagonal shift α·diag(A); it gives up after a few
// attempts.
func NewIC(a *sparse.CSR) (*ICPreconditioner, error) {
	if _, err := invDiag(a); err != nil {
		return nil, err
	}
	shifts := []float64{0, 1e-3, 1e-2, 1e-1, 0.5}
	var err error
	for _, s := range shifts {
		var p *ICPreconditioner
		p, err = newICShifted(a, s)
		if err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("solve: IC(0) breakdown persists: %w", err)
}

func newICShifted(a *sparse.CSR, shift float64) (*ICPreconditioner, error) {
	n := a.N
	p := &ICPreconditioner{
		n:      n,
		rowPtr: make([]int32, n+1),
		diag:   make([]float64, n),
	}
	// Strictly-lower pattern of A (CSR rows are column-sorted).
	for i := 0; i < n; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if int(a.Col[q]) < i {
				p.col = append(p.col, a.Col[q])
				p.val = append(p.val, a.Val[q])
			}
		}
		p.rowPtr[i+1] = int32(len(p.col))
	}
	// Row-major up-looking factorization restricted to the pattern.
	// For each row i: L[i][j] = (A[i][j] - Σ_k L[i][k]·L[j][k]) / L[j][j]
	// over shared k < j, then the diagonal.
	for i := 0; i < n; i++ {
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			j := int(p.col[q])
			s := p.val[q]
			// Intersect row i and row j patterns (both column-sorted).
			qi, qj := p.rowPtr[i], p.rowPtr[j]
			for qi < q && qj < p.rowPtr[j+1] {
				ci, cj := p.col[qi], p.col[qj]
				switch {
				case ci == cj:
					s -= p.val[qi] * p.val[qj]
					qi++
					qj++
				case ci < cj:
					qi++
				default:
					qj++
				}
			}
			p.val[q] = s / p.diag[j]
		}
		// Diagonal: A[i][i]·(1+shift) − Σ L[i][k]².
		d := a.At(i, i) * (1 + shift)
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			d -= p.val[q] * p.val[q]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("solve: IC(0) pivot %g at row %d (shift %g)", d, i, shift)
		}
		p.diag[i] = math.Sqrt(d)
	}
	return p, nil
}

// lowerRow returns row i of the strictly-lower factor as column and
// value slices taken once, so the sweeps pay no per-nonzero row-pointer
// reload or value bounds check. When the row's last column is i−1 it
// splits that entry off (prev true, value vl): the sweeps apply it from
// the register that holds row i−1's value, after the rest of the row,
// which is where column order puts it.
func (p *ICPreconditioner) lowerRow(i int) (cs []int32, vs []float64, vl float64, prev bool) {
	lo, hi := p.rowPtr[i], p.rowPtr[i+1]
	cs = p.col[lo:hi]
	vs = p.val[lo:hi][:len(cs)]
	if k := len(cs) - 1; k >= 0 && int(cs[k]) == i-1 {
		return cs[:k], vs[:k], vs[k], true
	}
	return cs, vs, 0, false
}

// Apply computes z = M⁻¹ r via forward then backward substitution.
//
// Both sweeps keep the value a row has just computed in a register for
// its neighbour row instead of storing and reloading it: the triangular
// solves are a serial chain, so that reload sits on the critical path.
// The floating-point operations and their order are those of a plain
// row-by-row substitution (CSR rows are column-sorted without
// duplicates), so the answer is bit-identical to it.
func (p *ICPreconditioner) Apply(z, r []float64) {
	n := p.n
	z, r = z[:n], r[:n]
	diag := p.diag[:n]
	// Forward: L·y = r. zp is z[i-1]; a row whose last column is i-1
	// subtracts that term, its last, from the register.
	var zp float64
	for i := range z {
		cs, vs, vl, prev := p.lowerRow(i)
		s := r[i]
		for q, c := range cs {
			s -= vs[q] * z[c]
		}
		if prev {
			s -= vl * zp
		}
		zp = s / diag[i]
		z[i] = zp
	}
	// Backward: Lᵀ·z = y, in place, traversing rows in reverse and
	// scattering into earlier entries. Row i's scatter into z[i-1] is the
	// last term z[i-1] receives, so it is formed in the register zn and
	// divided at the next row.
	var zn float64
	next := false // zn holds z[i]'s final value
	for i := n - 1; i >= 0; i-- {
		zi := zn
		if !next {
			zi = z[i]
		}
		zi /= diag[i]
		z[i] = zi
		cs, vs, vl, prev := p.lowerRow(i)
		for q, c := range cs {
			z[c] -= vs[q] * zi
		}
		if prev {
			zn = z[i-1] - vl*zi
		}
		next = prev
	}
}

// Apply4 computes z[j] = M⁻¹·r[j] for four columns in one forward and one
// backward pass over the factor. Each lane does Apply's operations in
// Apply's order, with Apply's register forwarding, so it is bit-identical
// to an Apply of its own. A lane may pass one vector as both z and r
// only when it is zero.
func (p *ICPreconditioner) Apply4(z, r [LockstepWidth][]float64) {
	n := p.n
	z0, z1, z2, z3 := z[0][:n], z[1][:n], z[2][:n], z[3][:n]
	r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
	diag := p.diag[:n]
	var p0, p1, p2, p3 float64 // row i-1's values
	for i := 0; i < n; i++ {
		cs, vs, vl, prev := p.lowerRow(i)
		s0, s1, s2, s3 := r0[i], r1[i], r2[i], r3[i]
		for q, c := range cs {
			v := vs[q]
			s0 -= v * z0[c]
			s1 -= v * z1[c]
			s2 -= v * z2[c]
			s3 -= v * z3[c]
		}
		if prev {
			s0 -= vl * p0
			s1 -= vl * p1
			s2 -= vl * p2
			s3 -= vl * p3
		}
		d := diag[i]
		p0, p1, p2, p3 = s0/d, s1/d, s2/d, s3/d
		z0[i], z1[i], z2[i], z3[i] = p0, p1, p2, p3
	}
	var n0, n1, n2, n3 float64 // row i's final values, formed at row i+1
	next := false
	for i := n - 1; i >= 0; i-- {
		zi0, zi1, zi2, zi3 := n0, n1, n2, n3
		if !next {
			zi0, zi1, zi2, zi3 = z0[i], z1[i], z2[i], z3[i]
		}
		d := diag[i]
		zi0, zi1, zi2, zi3 = zi0/d, zi1/d, zi2/d, zi3/d
		z0[i], z1[i], z2[i], z3[i] = zi0, zi1, zi2, zi3
		cs, vs, vl, prev := p.lowerRow(i)
		for q, c := range cs {
			v := vs[q]
			z0[c] -= v * zi0
			z1[c] -= v * zi1
			z2[c] -= v * zi2
			z3[c] -= v * zi3
		}
		if prev {
			n0 = z0[i-1] - vl*zi0
			n1 = z1[i-1] - vl*zi1
			n2 = z2[i-1] - vl*zi2
			n3 = z3[i-1] - vl*zi3
		}
		next = prev
	}
}
