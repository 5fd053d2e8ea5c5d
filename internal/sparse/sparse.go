// Package sparse implements the symmetric sparse matrices used by the
// R-Mesh nodal analysis. Conductance matrices are assembled stamp-by-stamp
// into a coordinate builder and compressed to CSR for the iterative solver.
//
// The matrices produced by nodal analysis of a resistor network with at
// least one tie to the (folded) supply node are symmetric positive
// definite, which the conjugate-gradient solver in internal/solve relies on.
package sparse

import (
	"fmt"
	"slices"

	"pdn3d/internal/par"
)

// Builder accumulates symmetric stamps in coordinate form. Only one triangle
// needs to be stamped for off-diagonal entries if the caller uses
// AddConductance; raw Add calls stamp exactly what they are given.
type Builder struct {
	n    int
	rows []int32
	cols []int32
	vals []float64
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Grow makes room for k more stamps, so a caller that knows its stamp
// count (or a tight upper bound on it) sizes the builder once instead of
// letting Add double its arrays.
func (b *Builder) Grow(k int) {
	b.rows = slices.Grow(b.rows, k)
	b.cols = slices.Grow(b.cols, k)
	b.vals = slices.Grow(b.vals, k)
}

// Add accumulates v into entry (i, j). Duplicate coordinates are summed
// during compression.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range for n=%d", i, j, b.n))
	}
	if v == 0 {
		return
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// AddConductance stamps a two-terminal conductance g between nodes i and j:
// +g on both diagonals, -g on both off-diagonals. It is the fundamental
// operation of nodal analysis.
func (b *Builder) AddConductance(i, j int, g float64) {
	b.Add(i, i, g)
	b.Add(j, j, g)
	b.Add(i, j, -g)
	b.Add(j, i, -g)
}

// AddToGround stamps a conductance g from node i to the folded reference
// node (only the diagonal entry appears in the reduced system).
func (b *Builder) AddToGround(i int, g float64) {
	b.Add(i, i, g)
}

// NNZStamps returns the number of raw stamps accumulated so far (before
// duplicate merging). Useful for capacity diagnostics.
func (b *Builder) NNZStamps() int { return len(b.vals) }

// RawVals returns the raw stamp values in stamp order, aliasing the
// builder's storage. Together with Pattern.Scatter it lets a caller
// compress without re-sorting: Freeze once, then Scatter any stamp stream
// with the same structure.
func (b *Builder) RawVals() []float64 { return b.vals }

// Compress merges duplicates and produces an immutable CSR matrix. It is
// Freeze + NewCSR + Scatter, so one-shot builds and pattern-reusing
// restamps produce bit-identical matrices by construction.
func (b *Builder) Compress() *CSR {
	p := b.Freeze()
	m := p.NewCSR()
	p.Scatter(m.Val, b.vals)
	return m
}

// Pattern is the frozen symbolic structure of a compressed matrix: the CSR
// row pointers and column indices, plus the stamp→slot mapping that merges
// duplicate coordinates. A Pattern is immutable and safe for concurrent
// use; it can Scatter any number of raw stamp streams that follow the same
// stamping order as the builder it was frozen from.
//
//pdnlint:frozen
type Pattern struct {
	n      int
	rowPtr []int32
	col    []int32
	// order lists the raw stamp indices sorted by (row, col) — the exact
	// merge order the one-shot Compress uses, preserved so that summing
	// duplicates during Scatter is bit-identical to Compress.
	order []int32
	// slot[i] is the CSR value slot stamp order[i] merges into.
	slot []int32
}

// Freeze captures the builder's symbolic structure as an immutable
// Pattern. The builder's stamp coordinates — not its values — define the
// pattern: a later stamp stream with the same coordinates in the same
// order can be Scattered through it.
//
// The stamps are ordered by (row, col, stamp index) with two stable
// counting sorts, by column and then by row, in O(stamps + n). Stability
// supplies the stamp-index tie-break: duplicates of one coordinate always
// merge in stamping order, which fixes the float sum that the
// bit-identical Compress/Scatter contract and the byte-pinned golden
// corpus depend on. Every output is allocated once at its exact size;
// the row pointers double as the sorts' bucket array, and slot holds the
// column-ordered stamps until the row pass has consumed them.
func (b *Builder) Freeze() *Pattern {
	p := &Pattern{
		n:      b.n,
		rowPtr: make([]int32, b.n+1),
		order:  make([]int32, len(b.vals)),
		slot:   make([]int32, len(b.vals)),
	}
	bucket, byCol := p.rowPtr, p.slot
	for _, c := range b.cols {
		bucket[c+1]++
	}
	prefixSum(bucket)
	for t, c := range b.cols {
		byCol[bucket[c]] = int32(t)
		bucket[c]++
	}
	clear(bucket)
	for _, r := range b.rows {
		bucket[r+1]++
	}
	prefixSum(bucket)
	for _, t := range byCol {
		r := b.rows[t]
		p.order[bucket[r]] = t
		bucket[r]++
	}

	// The row pass leaves bucket[r] at the end of row r's stamps. Walk
	// the rows, open a slot at every column change, and overwrite each
	// bucket with the row's first slot once its end has been read.
	var lo, nnz int32
	for r := 0; r < b.n; r++ {
		hi := p.rowPtr[r]
		p.rowPtr[r] = nnz
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			if c := b.cols[p.order[i]]; c != prev {
				prev = c
				nnz++
			}
			p.slot[i] = nnz - 1
		}
		lo = hi
	}
	p.rowPtr[b.n] = nnz
	p.col = make([]int32, nnz)
	for i, t := range p.order {
		p.col[p.slot[i]] = b.cols[t]
	}
	return p
}

// prefixSum turns per-key counts stored at a[k+1] into the start offset
// of every key at a[k].
func prefixSum(a []int32) {
	for i := 1; i < len(a); i++ {
		a[i] += a[i-1]
	}
}

// N returns the matrix dimension.
func (p *Pattern) N() int { return p.n }

// NNZ returns the number of stored entries after duplicate merging.
func (p *Pattern) NNZ() int { return len(p.col) }

// Stamps returns the number of raw stamps the pattern was frozen from. A
// stream passed to Scatter must have exactly this length.
func (p *Pattern) Stamps() int { return len(p.order) }

// NewCSR returns a CSR matrix over this pattern with a zero value array.
// The row pointers and column indices are shared with the pattern (and
// with every other CSR made from it) — callers must treat them as
// read-only, which the solver stack already does. Only the value array is
// fresh, so one topology serves many concurrently-solved value sets.
func (p *Pattern) NewCSR() *CSR {
	return &CSR{N: p.n, RowPtr: p.rowPtr, Col: p.col, Val: make([]float64, len(p.col))}
}

// Scatter compresses a raw stamp stream into dst, which must be the value
// array of a CSR made from this pattern (len == NNZ). raw must contain
// exactly Stamps() values in the original stamping order. Duplicates are
// summed in the same order Compress merges them, so the result is
// bit-identical to rebuilding through a Builder with the same stamps.
func (p *Pattern) Scatter(dst, raw []float64) {
	if len(raw) != len(p.order) {
		panic(fmt.Sprintf("sparse: Scatter got %d raw stamps, pattern has %d", len(raw), len(p.order)))
	}
	if len(dst) != len(p.col) {
		panic(fmt.Sprintf("sparse: Scatter dst length %d != pattern nnz %d", len(dst), len(p.col)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, t := range p.order {
		dst[p.slot[i]] += raw[t]
	}
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = A·x. y must have length N and is overwritten.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: n=%d len(x)=%d len(y)=%d", m.N, len(x), len(y)))
	}
	m.MulVecRange(y, x, 0, m.N)
}

// MulVecRange computes y[lo:hi] = (A·x)[lo:hi] — the row slab of a
// matrix-vector product. Disjoint slabs touch disjoint parts of y, so
// concurrent calls over a partition of [0, N) are safe; this is the
// sharding primitive behind MulVecPar.
func (m *CSR) MulVecRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * x[m.Col[p]]
		}
		y[i] = s
	}
}

// MulVecPar computes y = A·x with the rows sharded over at most workers
// goroutines (<= 0 selects GOMAXPROCS). Every row is computed exactly as
// in MulVec, so the result is bit-for-bit identical to the serial product
// for any worker count.
func (m *CSR) MulVecPar(y, x []float64, workers, block int) {
	if len(x) != m.N || len(y) != m.N {
		panic(fmt.Sprintf("sparse: MulVecPar dimension mismatch: n=%d len(x)=%d len(y)=%d", m.N, len(x), len(y)))
	}
	par.Blocks(workers, m.N, block, func(_, lo, hi int) {
		m.MulVecRange(y, x, lo, hi)
	})
}

// Diag extracts the diagonal into a new slice. Missing diagonal entries are
// reported as zero.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.Col[p]) == i {
				d[i] = m.Val[p]
				break
			}
		}
	}
	return d
}

// At returns entry (i, j), zero when not stored. It is O(row nnz) and meant
// for tests and small inspections, not for inner loops.
func (m *CSR) At(i, j int) float64 {
	for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
		if int(m.Col[p]) == j {
			return m.Val[p]
		}
	}
	return 0
}

// Dense expands the matrix to a dense row-major [][]float64; for tests and
// for the dense validation solver on small systems.
func (m *CSR) Dense() [][]float64 {
	out := make([][]float64, m.N)
	buf := make([]float64, m.N*m.N)
	for i := range out {
		out[i] = buf[i*m.N : (i+1)*m.N]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[i][m.Col[p]] = m.Val[p]
		}
	}
	return out
}

// StructureEqual reports whether a and b have the same dimension and the
// exact same sparsity pattern (row pointers and column indices), ignoring
// the stored values. Two matrices assembled from the same branch set —
// e.g. an R-Mesh and its re-parsed SPICE netlist — must compare equal
// here even when their values differ by rounding; the differential
// harness uses this as the structural half of its round-trip contract.
func StructureEqual(a, b *CSR) bool {
	if a.N != b.N || len(a.Col) != len(b.Col) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether the matrix is numerically symmetric within
// tol, comparing every stored entry against its transpose partner.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.N; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := int(m.Col[p])
			d := m.Val[p] - m.At(j, i)
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}
