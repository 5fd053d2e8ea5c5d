package solve

import (
	"fmt"
	"math"

	"pdn3d/internal/sparse"
)

// Cholesky is a dense lower-triangular Cholesky factorization A = L·Lᵀ.
// It closes the AMG V-cycle on the coarsest level, and it is the exact
// oracle the differential harness (internal/bench/diff) checks every
// registered method against; its O(n³) cost restricts it to small systems.
type Cholesky struct {
	n int
	l [][]float64 // lower triangle, row i holds entries 0..i
}

// NewCholesky factorizes the SPD matrix A given in CSR form.
func NewCholesky(a *sparse.CSR) (*Cholesky, error) {
	n := a.N
	l := make([][]float64, n)
	dense := a.Dense()
	for i := 0; i < n; i++ {
		l[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			s := dense[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("solve: Cholesky pivot %g <= 0 at row %d (matrix not SPD)", s, i)
				}
				l[i][j] = math.Sqrt(s)
			} else {
				l[i][j] = s / l[j][j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve returns x with A·x = b using the precomputed factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("solve: rhs length %d != matrix dim %d", len(b), c.n)
	}
	x := make([]float64, c.n)
	c.solveInto(x, b)
	return x, nil
}

// solveInto writes the solution of A·x = b into x (len n, distinct from
// b) without allocating: the forward substitution L·y = b stores y in x,
// and the backward substitution Lᵀ·x = y then overwrites it from the last
// entry down, reading only entries it has already finalized.
func (c *Cholesky) solveInto(x, b []float64) {
	for i := 0; i < c.n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i][k] * x[k]
		}
		x[i] = s / c.l[i][i]
	}
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l[k][i] * x[k]
		}
		x[i] = s / c.l[i][i]
	}
}
