// Package sparse implements the symmetric sparse matrices used by the
// R-Mesh nodal analysis. Conductance matrices are assembled stamp-by-stamp
// into a coordinate builder and compressed to CSR for the iterative solver;
// once a builder's pattern is frozen, a later stream with the same
// coordinates is stamped straight into a CSR's values.
//
// The matrices produced by nodal analysis of a resistor network with at
// least one tie to the (folded) supply node are symmetric positive
// definite, which the conjugate-gradient solver in internal/solve relies on.
package sparse

import (
	"fmt"
	"slices"
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

// RawVals returns the raw stamp values in stamp order, aliasing the
// builder's storage. Together with Pattern.Scatter it lets a caller
// compress without re-sorting: Freeze once, then Scatter any stamp stream
// with the same structure.
func (b *Builder) RawVals() []float64 { return b.vals }

// Compress merges duplicates and produces an immutable CSR matrix. It is
// Freeze + NewCSR + Scatter, so one-shot builds and matrices stamped over
// a frozen pattern are bit-identical by construction.
func (b *Builder) Compress() *CSR {
	p := b.Freeze()
	m := p.NewCSR()
	p.Scatter(m.Val, b.vals)
	return m
}

// Pattern is the frozen symbolic structure of a compressed matrix: the CSR
// row pointers and column indices, plus the value slot each raw stamp
// merges into. A Pattern is immutable and safe for concurrent use; it can
// Scatter or stamp any number of stamp streams that follow the same
// stamping order as the builder it was frozen from.
//
//pdnlint:frozen
type Pattern struct {
	n      int
	rowPtr []int32
	col    []int32
	// slot[t] is the CSR value slot raw stamp t merges into. Adding a
	// stream into its slots in stamping order sums each coordinate's
	// duplicates in stamp-index order, the merge order Compress promises.
	slot []int32
}

// Freeze captures the builder's symbolic structure as an immutable
// Pattern. The builder's stamp coordinates — not its values — define the
// pattern: a later stamp stream with the same coordinates in the same
// order can be Scattered or stamped through it.
//
// The stamps are ordered by (row, col, stamp index) with two stable
// counting sorts, by column and then by row, in O(stamps + n); each run
// of equal coordinates opens one value slot. Every output is allocated
// once at its exact size; the row pointers double as the sorts' bucket
// array, slot holds the column-ordered stamps until the row pass has
// consumed them, and the row-ordered stamps are scratch.
func (b *Builder) Freeze() *Pattern {
	p := &Pattern{
		n:      b.n,
		rowPtr: make([]int32, b.n+1),
		slot:   make([]int32, len(b.vals)),
	}
	order := make([]int32, len(b.vals))
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
		order[bucket[r]] = t
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
		for _, t := range order[lo:hi] {
			if c := b.cols[t]; c != prev {
				prev = c
				nnz++
			}
			p.slot[t] = nnz - 1
		}
		lo = hi
	}
	p.rowPtr[b.n] = nnz
	p.col = make([]int32, nnz)
	for t, s := range p.slot {
		p.col[s] = b.cols[t]
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
// stream passed to Scatter, or through a Stamper, must have exactly this
// length.
func (p *Pattern) Stamps() int { return len(p.slot) }

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
// exactly Stamps() values in the original stamping order. Each stamp is
// added into its slot in stamping order, so duplicates sum in the order
// Compress merges them and the result is bit-identical to rebuilding
// through a Builder with the same stamps.
func (p *Pattern) Scatter(dst, raw []float64) {
	if len(raw) != len(p.slot) {
		panic(fmt.Sprintf("sparse: Scatter got %d raw stamps, pattern has %d", len(raw), len(p.slot)))
	}
	if len(dst) != len(p.col) {
		panic(fmt.Sprintf("sparse: Scatter dst length %d != pattern nnz %d", len(dst), len(p.col)))
	}
	clear(dst)
	for t, v := range raw {
		dst[p.slot[t]] += v
	}
}

// Stamper adds a stamp stream straight into the value array of a CSR made
// from a pattern: it has Builder's conductance stamps and zero skip, and
// adds the t-th kept stamp into slot[t]. Coordinates are not read (the
// pattern holds them), so the stream must follow the frozen one's order.
type Stamper struct {
	slot []int32
	val  []float64
	n    int
}

// Stamper returns a stamper adding into val, the zero value array of a
// CSR from NewCSR.
func (p *Pattern) Stamper(val []float64) *Stamper {
	if len(val) != len(p.col) {
		panic(fmt.Sprintf("sparse: Stamper val length %d != pattern nnz %d", len(val), len(p.col)))
	}
	return &Stamper{slot: p.slot, val: val}
}

// add adds a nonzero v into the next stamp's slot, the stamp Builder.Add
// would keep. A stamp past the frozen stream is counted but not added.
func (s *Stamper) add(v float64) {
	if v == 0 {
		return
	}
	if s.n < len(s.slot) {
		s.val[s.slot[s.n]] += v
	}
	s.n++
}

// AddConductance stamps g between nodes i and j, as Builder does.
func (s *Stamper) AddConductance(i, j int, g float64) {
	s.add(g)
	s.add(g)
	s.add(-g)
	s.add(-g)
}

// AddToGround stamps g from node i to the reference, as Builder does.
func (s *Stamper) AddToGround(i int, g float64) { s.add(g) }

// Stamps returns the number of stamps kept so far; a complete stream
// keeps Pattern.Stamps.
func (s *Stamper) Stamps() int { return s.n }

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
	// Each row is walked through slices taken once per row, so a nonzero
	// costs one bounds check (its column's x entry) and no row-pointer
	// reload; the sum runs in column order.
	rp := m.RowPtr[:len(y)+1]
	for i := range y {
		lo, hi := rp[i], rp[i+1]
		cs := m.Col[lo:hi]
		vs := m.Val[lo:hi][:len(cs)]
		var s float64
		for q, c := range cs {
			s += vs[q] * x[c]
		}
		y[i] = s
	}
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
