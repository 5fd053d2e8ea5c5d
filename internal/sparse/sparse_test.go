package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderCompressMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 2, 5)
	b.Add(1, 2, -1)
	m := b.Compress()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %g, want 3", got)
	}
	if got := m.At(1, 2); got != 4 {
		t.Errorf("At(1,2) = %g, want 4", got)
	}
	if got := m.At(2, 1); got != 0 {
		t.Errorf("At(2,1) = %g, want 0 (raw Add does not symmetrize)", got)
	}
}

func TestAddConductanceStamp(t *testing.T) {
	b := NewBuilder(2)
	b.AddConductance(0, 1, 2.5)
	m := b.Compress()
	want := [][]float64{{2.5, -2.5}, {-2.5, 2.5}}
	d := m.Dense()
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("entry (%d,%d) = %g, want %g", i, j, d[i][j], want[i][j])
			}
		}
	}
	if !m.IsSymmetric(0) {
		t.Error("conductance stamp must be symmetric")
	}
}

func TestAddToGroundOnlyDiagonal(t *testing.T) {
	b := NewBuilder(2)
	b.AddToGround(1, 4)
	m := b.Compress()
	if m.NNZ() != 1 || m.At(1, 1) != 4 {
		t.Errorf("ground stamp wrong: nnz=%d At(1,1)=%g", m.NNZ(), m.At(1, 1))
	}
}

func TestZeroValueStampsSkipped(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 0)
	if len(b.vals) != 0 {
		t.Error("zero stamp should be dropped")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on out-of-range Add")
		}
	}()
	NewBuilder(2).Add(0, 2, 1)
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		b := NewBuilder(n)
		for k := 0; k < n*3; k++ {
			b.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		m := b.Compress()
		d := m.Dense()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		m.MulVec(got, x)
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-10 {
				t.Fatalf("trial %d: y[%d] = %g, want %g", trial, i, got[i], want)
			}
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := NewBuilder(3).Compress()
	defer func() {
		if recover() == nil {
			t.Error("want panic on dimension mismatch")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestDiag(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(2, 2, 7)
	b.Add(0, 1, 9)
	d := b.Compress().Diag()
	want := []float64{2, 0, 7}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("diag[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

// Property: a matrix assembled purely out of AddConductance/AddToGround
// stamps is symmetric and weakly diagonally dominant with non-negative
// diagonal — the structure CG relies on.
func TestConductanceAssemblyProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%20
		b := NewBuilder(n)
		for k := 0; k < 4*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				b.AddToGround(i, rng.Float64()+0.01)
			} else {
				b.AddConductance(i, j, rng.Float64()+0.01)
			}
		}
		m := b.Compress()
		if !m.IsSymmetric(1e-12) {
			return false
		}
		for i := 0; i < n; i++ {
			var off, diag float64
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if int(m.Col[p]) == i {
					diag = m.Val[p]
				} else {
					off += math.Abs(m.Val[p])
				}
			}
			if diag < off-1e-12 || diag < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowPtrConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(30)
	for k := 0; k < 500; k++ {
		b.AddConductance(rng.Intn(30), rng.Intn(30), rng.Float64())
	}
	m := b.Compress()
	if int(m.RowPtr[m.N]) != m.NNZ() {
		t.Fatalf("RowPtr[N] = %d, want NNZ %d", m.RowPtr[m.N], m.NNZ())
	}
	for i := 0; i < m.N; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			t.Fatalf("RowPtr not monotone at %d", i)
		}
		// Columns sorted within row.
		for p := m.RowPtr[i] + 1; p < m.RowPtr[i+1]; p++ {
			if m.Col[p-1] >= m.Col[p] {
				t.Fatalf("row %d columns not strictly increasing", i)
			}
		}
	}
}

// buildRandomStamps fills a builder with a deterministic pseudo-random
// stamp stream containing duplicates, negatives, and ground ties.
func buildRandomStamps(n, stamps int) *Builder {
	b := NewBuilder(n)
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	for k := 0; k < stamps; k++ {
		i := int(next() % uint64(n))
		j := int(next() % uint64(n))
		g := float64(next()%1000)/997 + 0.001
		if i == j {
			b.AddToGround(i, g)
		} else {
			b.AddConductance(i, j, g)
		}
	}
	return b
}

// Freeze+NewCSR+Scatter must be bitwise indistinguishable from Compress:
// same structure, same duplicate-merge order, same values.
func TestPatternScatterMatchesCompress(t *testing.T) {
	b := buildRandomStamps(50, 400)
	want := b.Compress()
	p := b.Freeze()
	m := p.NewCSR()
	p.Scatter(m.Val, b.RawVals())
	if m.N != want.N || m.NNZ() != want.NNZ() {
		t.Fatalf("shape %dx%d nnz=%d, want %dx%d nnz=%d", m.N, m.N, m.NNZ(), want.N, want.N, want.NNZ())
	}
	for i := range want.Val {
		if math.Float64bits(m.Val[i]) != math.Float64bits(want.Val[i]) {
			t.Fatalf("Val[%d] = %x, want %x", i, math.Float64bits(m.Val[i]), math.Float64bits(want.Val[i]))
		}
	}
	for i := 0; i < want.N; i++ {
		for j := 0; j < want.N; j++ {
			if m.At(i, j) != want.At(i, j) {
				t.Fatalf("At(%d,%d) = %g, want %g", i, j, m.At(i, j), want.At(i, j))
			}
		}
	}
}

// A pattern is reusable: scattering a second stamp stream with the same
// coordinates into the same destination must fully overwrite the first.
func TestPatternScatterOverwrites(t *testing.T) {
	b := NewBuilder(3)
	b.AddConductance(0, 1, 2)
	b.AddToGround(0, 5)
	p := b.Freeze()
	m := p.NewCSR()
	p.Scatter(m.Val, b.RawVals())
	first := m.At(0, 0)

	// Same stream shape, halved values.
	b2 := NewBuilder(3)
	b2.AddConductance(0, 1, 1)
	b2.AddToGround(0, 2.5)
	p.Scatter(m.Val, b2.RawVals())
	if m.At(0, 0) != first/2 {
		t.Errorf("second scatter left stale values: At(0,0) = %g, want %g", m.At(0, 0), first/2)
	}
	if m.At(0, 1) != -1 {
		t.Errorf("At(0,1) = %g, want -1", m.At(0, 1))
	}
}

// Stamps/N/NNZ describe the frozen stream; Scatter validates both lengths.
func TestPatternScatterPanicsOnMismatch(t *testing.T) {
	b := NewBuilder(4)
	b.AddConductance(0, 1, 1)
	p := b.Freeze()
	if p.N() != 4 || p.Stamps() != 4 || p.NNZ() != 4 {
		t.Fatalf("pattern shape n=%d stamps=%d nnz=%d, want 4/4/4", p.N(), p.Stamps(), p.NNZ())
	}
	m := p.NewCSR()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("short raw", func() { p.Scatter(m.Val, make([]float64, 3)) })
	mustPanic("short dst", func() { p.Scatter(make([]float64, 3), make([]float64, 4)) })
}

// NewCSR shares the frozen structure but never the values: two matrices
// minted from one pattern hold independent value arrays.
func TestPatternNewCSRIndependentValues(t *testing.T) {
	b := buildRandomStamps(10, 40)
	p := b.Freeze()
	m1, m2 := p.NewCSR(), p.NewCSR()
	p.Scatter(m1.Val, b.RawVals())
	for _, v := range m2.Val {
		if v != 0 {
			t.Fatal("fresh pattern CSR has nonzero values")
		}
	}
	m2.Val[0] = 42
	if m1.Val[0] == 42 {
		t.Fatal("pattern CSRs share value storage")
	}
}

// StructureEqual compares the symbolic pattern only: same shape with
// different values is equal, any structural drift is not.
func TestStructureEqual(t *testing.T) {
	build := func(stamp func(b *Builder)) *CSR {
		b := NewBuilder(3)
		stamp(b)
		return b.Compress()
	}
	base := func(b *Builder) {
		b.AddConductance(0, 1, 2)
		b.AddConductance(1, 2, 3)
		b.AddToGround(0, 1)
	}
	a := build(base)
	if !StructureEqual(a, a) {
		t.Error("matrix not structure-equal to itself")
	}
	sameShape := build(func(b *Builder) {
		b.AddConductance(0, 1, 7)
		b.AddConductance(1, 2, 11)
		b.AddToGround(0, 5)
	})
	if !StructureEqual(a, sameShape) {
		t.Error("same pattern with different values reported unequal")
	}
	extraBranch := build(func(b *Builder) {
		base(b)
		b.AddConductance(0, 2, 1)
	})
	if StructureEqual(a, extraBranch) {
		t.Error("extra branch not detected")
	}
	smaller := NewBuilder(2)
	smaller.AddConductance(0, 1, 2)
	if StructureEqual(a, smaller.Compress()) {
		t.Error("dimension mismatch not detected")
	}
}
