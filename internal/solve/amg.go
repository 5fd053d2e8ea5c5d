package solve

import (
	"fmt"
	"sync"

	"pdn3d/internal/sparse"
)

// This file implements an aggregation-based algebraic multigrid (AMG)
// preconditioner for the R-Mesh conductance systems. One V-cycle with
// weighted-Jacobi smoothing approximates A⁻¹ well enough that CG
// iteration counts stay nearly flat as the mesh grows, where single-level
// preconditioners (diagonal scaling, IC(0)) degrade with the mesh diameter.
//
// The hierarchy is built once at solver construction:
//   - greedy aggregation groups each fine node with its strong neighbors
//     (|a_ij| ≥ θ·√(a_ii·a_jj)), scanning nodes in index order so the
//     aggregates — and therefore every coarse operator — are fully
//     deterministic;
//   - the coarse operator is the Galerkin product Pᵀ·A·P with
//     piecewise-constant prolongation (P[i][agg(i)] = 1), assembled through
//     sparse.Builder whose duplicate-merge order is deterministic;
//   - coarsening repeats until the operator fits a dense Cholesky
//     factorization, which closes the V-cycle exactly.
//
// The V-cycle applies one pre- and one post-smoothing sweep of weighted
// Jacobi (ω = 2/3). Starting the pre-smooth from the zero vector makes the
// cycle a fixed symmetric positive-definite operator, which CG requires of
// its preconditioner.

const (
	// amgTheta is the strength-of-connection threshold θ: node j is a
	// strong neighbor of i when |a_ij| ≥ θ·√(a_ii·a_jj). The mesh's
	// conductance ratios are mild, so a small θ aggregates aggressively.
	amgTheta = 0.08
	// amgCoarseMax is the dimension at which coarsening stops and the
	// hierarchy bottoms out in a dense Cholesky factorization.
	amgCoarseMax = 400
	// amgMaxLevels bounds the hierarchy depth (a backstop; the ~3×
	// coarsening rate reaches amgCoarseMax long before this).
	amgMaxLevels = 24
	// amgOmega is the weighted-Jacobi damping factor.
	amgOmega = 2.0 / 3.0
)

// amgLevel is one fine level of the hierarchy.
type amgLevel struct {
	a    *sparse.CSR
	invD []float64 // 1/diag(a), validated positive at setup
	agg  []int32   // aggregate (coarse node) of each fine node
	nc   int       // coarse dimension
}

// AMG is the V-cycle preconditioner. Apply is safe for concurrent calls
// on distinct vectors: per-call scratch comes from a pool, and the
// hierarchy itself is immutable after construction.
type AMG struct {
	levels  []amgLevel
	coarse  *Cholesky
	coarseN int
	scratch sync.Pool // *amgScratch
}

// NewAMG builds the multigrid hierarchy for the SPD matrix a. A zero,
// negative, NaN, or missing diagonal anywhere in the hierarchy yields a
// typed *DegenerateDiagonalError (on the finest level the node index is
// the original node).
func NewAMG(a *sparse.CSR) (*AMG, error) {
	// Validate the finest diagonal up front, even when the system is small
	// enough to skip coarsening: a degenerate mesh must fail with the
	// typed error, not whatever the dense factorization hits first.
	if _, err := invDiag(a); err != nil {
		return nil, err
	}
	m := &AMG{}
	cur := a
	for len(m.levels) < amgMaxLevels && cur.N > amgCoarseMax {
		invD, err := invDiag(cur)
		if err != nil {
			return nil, fmt.Errorf("solve: AMG level %d: %w", len(m.levels), err)
		}
		agg, nc := aggregate(cur)
		if nc >= cur.N {
			// No coarsening progress (pathological graph); stop here and
			// let the dense bottom handle whatever is left, or fail below.
			break
		}
		m.levels = append(m.levels, amgLevel{a: cur, invD: invD, agg: agg, nc: nc})
		cur = galerkin(cur, agg, nc)
	}
	c, err := NewCholesky(cur)
	if err != nil {
		return nil, fmt.Errorf("solve: AMG coarse factorization (n=%d): %w", cur.N, err)
	}
	m.coarse = c
	m.coarseN = cur.N
	m.scratch.New = func() interface{} { return m.newScratch() }
	return m, nil
}

// Levels returns the number of fine levels above the dense coarse solve.
func (m *AMG) Levels() int { return len(m.levels) }

// CoarseN returns the dimension of the dense bottom level.
func (m *AMG) CoarseN() int { return m.coarseN }

// aggregate greedily partitions the nodes of a into aggregates along
// strong connections, returning the aggregate of each node and the
// aggregate count. Pass 1 seeds an aggregate at every node whose strong
// neighborhood is untouched (scanning in index order — deterministic);
// pass 2 attaches leftovers to the strongest adjacent aggregate; isolated
// leftovers become singletons.
func aggregate(a *sparse.CSR) ([]int32, int) {
	n := a.N
	diag := a.Diag()
	theta2 := amgTheta * amgTheta
	strong := func(i int, q int32) (int32, bool) {
		j := a.Col[q]
		if int(j) == i {
			return j, false
		}
		v := a.Val[q]
		return j, v*v >= theta2*diag[i]*diag[j]
	}
	agg := make([]int32, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := int32(0)
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		free := true
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if j, ok := strong(i, q); ok && agg[j] >= 0 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = nc
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if j, ok := strong(i, q); ok {
				agg[j] = nc
			}
		}
		nc++
	}
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		best := int32(-1)
		var bestW float64
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.Col[q]
			if int(j) == i || agg[j] < 0 {
				continue
			}
			w := a.Val[q]
			if w < 0 {
				w = -w
			}
			// Strict > with ascending column scan: ties pick the
			// lowest-indexed neighbor, keeping the attachment deterministic.
			if w > bestW {
				bestW = w
				best = agg[j]
			}
		}
		if best >= 0 {
			agg[i] = best
		} else {
			agg[i] = nc
			nc++
		}
	}
	return agg, int(nc)
}

// galerkin assembles the coarse operator Ac = Pᵀ·A·P for the
// piecewise-constant prolongation defined by agg: every fine entry a_ij
// accumulates into Ac[agg(i)][agg(j)]. The Builder's stamp-order duplicate
// merge makes the float result deterministic. Each fine entry is at most
// one stamp (Add skips zeros), so nnz(A) sizes the builder.
func galerkin(a *sparse.CSR, agg []int32, nc int) *sparse.CSR {
	b := sparse.NewBuilder(nc)
	b.Grow(a.NNZ())
	for i := 0; i < a.N; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			b.Add(int(agg[i]), int(agg[a.Col[q]]), a.Val[q])
		}
	}
	return b.Compress()
}

// amgScratch is the per-Apply workspace: a residual buffer per fine level
// plus rhs/solution buffers per coarse level. Buffers are fully
// overwritten on every cycle, so pooled reuse cannot leak state between
// applications.
type amgScratch struct {
	res []([]float64) // residual at level l (dim of levels[l])
	rhs []([]float64) // restricted rhs entering level l+1
	sol []([]float64) // correction solved at level l+1
}

func (m *AMG) newScratch() *amgScratch {
	s := &amgScratch{}
	for l := range m.levels {
		lv := &m.levels[l]
		s.res = append(s.res, make([]float64, lv.a.N))
		s.rhs = append(s.rhs, make([]float64, lv.nc))
		s.sol = append(s.sol, make([]float64, lv.nc))
	}
	return s
}

// Apply computes z = M⁻¹·r with one V-cycle.
func (m *AMG) Apply(z, r []float64) {
	s := m.scratch.Get().(*amgScratch)
	m.cycle(0, z, r, s)
	m.scratch.Put(s)
}

func (m *AMG) cycle(l int, x, r []float64, s *amgScratch) {
	if l == len(m.levels) {
		// Coarsest level: exact dense solve in place. The factorization
		// was validated at setup, and the hierarchy sizes x and r to it.
		m.coarse.solveInto(x, r)
		return
	}
	lv := &m.levels[l]
	n := lv.a.N
	// Pre-smooth from the zero vector: x = ω·D⁻¹·r.
	for i := 0; i < n; i++ {
		x[i] = amgOmega * lv.invD[i] * r[i]
	}
	// Residual: res = r − A·x.
	res := s.res[l]
	lv.a.MulVec(res, x)
	for i := 0; i < n; i++ {
		res[i] = r[i] - res[i]
	}
	// Restrict (Pᵀ): per-aggregate sum, accumulated in fine-node order.
	rc := s.rhs[l]
	for i := range rc {
		rc[i] = 0
	}
	for i := 0; i < n; i++ {
		rc[lv.agg[i]] += res[i]
	}
	// Coarse-grid correction.
	xc := s.sol[l]
	m.cycle(l+1, xc, rc, s)
	// Prolong (P) and correct: x += P·xc.
	for i := 0; i < n; i++ {
		x[i] += xc[lv.agg[i]]
	}
	// Post-smooth: x += ω·D⁻¹·(r − A·x). Mirroring the pre-smooth keeps
	// the cycle symmetric, which CG requires.
	lv.a.MulVec(res, x)
	for i := 0; i < n; i++ {
		x[i] += amgOmega * lv.invD[i] * (r[i] - res[i])
	}
}
