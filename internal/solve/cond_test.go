package solve

import (
	"fmt"
	"math"
	"testing"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// condOracleRelTol is the documented accuracy band of the CG-Lanczos
// condition estimate: within 10% of the dense eigenvalue oracle. Lanczos
// Ritz values approach the extreme eigenvalues from inside the spectrum,
// so the estimate reads slightly low; 10% bounds that bias at solver
// tolerance (DESIGN.md §5i).
const condOracleRelTol = 0.10

// TestCondEstimateMatchesDenseOracle pins the flight recorder's
// CG-Lanczos condition estimate against denseCond: CG with the diagonal
// preconditioner sees the operator D^{-1/2}·A·D^{-1/2}, and its recorded
// estimate must land within condOracleRelTol of that operator's true κ₂.
func TestCondEstimateMatchesDenseOracle(t *testing.T) {
	a := grid2D(20, 20)
	exact, err := denseCond(a)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 1 {
		t.Fatalf("dense κ = %g, want > 1 for a non-trivial mesh", exact)
	}

	buf := obs.NewSolveBuffer(1)
	rec := buf.StartSolveRecord()
	_, _, err = diagCG(a, benchRHS(a.N), CGOptions{Tol: 1e-13, Rec: rec})
	rec.Commit()
	if err != nil {
		t.Fatal(err)
	}
	recent, _, _ := buf.Snapshot()
	if len(recent) != 1 {
		t.Fatalf("%d records committed, want 1", len(recent))
	}
	est := recent[0].CondEst
	if est <= 0 {
		t.Fatalf("recorded cond_est = %g, want > 0", est)
	}
	if rel := math.Abs(est-exact) / exact; rel > condOracleRelTol {
		t.Errorf("CG-Lanczos κ = %.6g vs dense oracle %.6g: rel err %.3f above %.2f",
			est, exact, rel, condOracleRelTol)
	}
	t.Logf("κ: CG-Lanczos %.6g, dense %.6g", est, exact)
}

// Dense condition-number oracle for the CG-Lanczos estimate. CG with the
// diagonal preconditioner M = diag(A) traverses the spectrum of M⁻¹A,
// which is similar to the symmetrized D^{-1/2}·A·D^{-1/2}; denseCond
// computes that operator's κ₂ with a cyclic Jacobi rotation eigensolver —
// a method entirely independent of the Lanczos machinery it validates,
// and robust to the clustered extreme eigenvalues that stall power
// iteration on these meshes. Its O(n³)-per-sweep cost restricts it to
// small systems.

// condMaxSweeps bounds the Jacobi eigensolver; convergence is quadratic
// once rotations lock in, so real meshes finish in well under ten sweeps.
const condMaxSweeps = 50

// denseCond computes the spectral condition number λmax/λmin of the
// diagonally scaled operator D^{-1/2}·A·D^{-1/2} for the SPD matrix a.
// The rotation schedule is fixed, so the result is deterministic.
func denseCond(a *sparse.CSR) (float64, error) {
	d := a.Diag()
	s := make([]float64, a.N)
	for i, v := range d {
		if v <= 0 {
			return 0, fmt.Errorf("dense cond: diagonal entry %d is %g, matrix not SPD", i, v)
		}
		s[i] = 1 / math.Sqrt(v)
	}
	dense := make([][]float64, a.N)
	buf := make([]float64, a.N*a.N)
	for i := range dense {
		dense[i] = buf[i*a.N : (i+1)*a.N]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			dense[i][a.Col[p]] = a.Val[p] * s[i] * s[a.Col[p]]
		}
	}
	lmin, lmax, err := jacobiEigenExtremes(dense)
	if err != nil {
		return 0, err
	}
	if lmin <= 0 {
		return 0, fmt.Errorf("dense cond: eigensolver produced λmin %g <= 0 for an SPD operator", lmin)
	}
	return lmax / lmin, nil
}

// jacobiEigenExtremes diagonalizes the symmetric dense matrix a in place
// with cyclic Jacobi rotations and returns its extreme eigenvalues.
func jacobiEigenExtremes(a [][]float64) (lmin, lmax float64, err error) {
	n := len(a)
	if n == 0 {
		return 0, 0, fmt.Errorf("dense cond: empty matrix")
	}
	for sweep := 0; sweep < condMaxSweeps; sweep++ {
		var off, diag float64
		for i := 0; i < n; i++ {
			diag += a[i][i] * a[i][i]
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		// Eigenvalues move by at most the off-diagonal Frobenius norm
		// (Weyl), so a 1e-9-relative residual leaves κ orders of magnitude
		// more accurate than the 10% band the harness certifies.
		if off <= 1e-18*(diag+off) {
			lmin, lmax = a[0][0], a[0][0]
			for i := 1; i < n; i++ {
				lmin = math.Min(lmin, a[i][i])
				lmax = math.Max(lmax, a[i][i])
			}
			return lmin, lmax, nil
		}
		// Early sweeps only rotate entries above a sweep-relative
		// threshold; late sweeps annihilate entries already negligible
		// against their diagonal — both standard cyclic-Jacobi
		// accelerations (they drop work, never accuracy).
		thresh := 0.0
		if sweep < 3 {
			thresh = 0.2 * off / float64(n*n)
		}
		for p := 0; p < n; p++ {
			rowp := a[p]
			for q := p + 1; q < n; q++ {
				apq := rowp[q]
				if apq == 0 {
					continue
				}
				// Deliberate rounding test: the entry is annihilated only
				// when adding it cannot change the diagonal in float64.
				if g := 100 * math.Abs(apq); sweep > 3 &&
					math.Abs(a[p][p])+g == math.Abs(a[p][p]) &&
					math.Abs(a[q][q])+g == math.Abs(a[q][q]) {
					rowp[q], a[q][p] = 0, 0
					continue
				}
				if apq*apq <= thresh {
					continue
				}
				// Stable rotation angle: t = tan θ from the smaller root.
				theta := (a[q][q] - a[p][p]) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				rowq := a[q]
				a[p][p] -= t * apq
				a[q][q] += t * apq
				rowp[q], rowq[p] = 0, 0
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip, aiq := rowp[i], rowq[i]
					rowp[i] = c*aip - sn*aiq
					rowq[i] = sn*aip + c*aiq
					a[i][p] = rowp[i]
					a[i][q] = rowq[i]
				}
			}
		}
	}
	return 0, 0, fmt.Errorf("dense cond: Jacobi eigensolver did not converge in %d sweeps", condMaxSweeps)
}
