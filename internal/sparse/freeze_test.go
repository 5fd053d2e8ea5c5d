package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// dupStampBuilder builds a matrix whose stamp stream carries many
// duplicate-coordinate groups with magnitudes chosen so the float sum
// depends on the summation order: per coordinate the sequence
// (+big, +1, −big) sums to 0 in stamp order (big + 1 rounds to big) but
// to 1 when the ±big pair cancels first. The groups are interleaved
// across enough coordinates that an unstable sort visibly reorders
// equal-key runs.
func dupStampBuilder() *Builder {
	const n = 24
	const big = 1e16 // big + 1 == big in float64
	b := NewBuilder(n)
	// Interleave: first pass stamps +big on every coordinate, second pass
	// +1, third pass −big, so each coordinate's duplicates are far apart
	// in the stamp stream.
	coords := make([][2]int, 0, n*3)
	for i := 0; i < n; i++ {
		coords = append(coords, [2]int{i, i})
		if i+1 < n {
			coords = append(coords, [2]int{i, i + 1}, [2]int{i + 1, i})
		}
	}
	for _, c := range coords {
		b.Add(c[0], c[1], big)
	}
	for _, c := range coords {
		b.Add(c[0], c[1], 1)
	}
	for _, c := range coords {
		b.Add(c[0], c[1], -big)
	}
	return b
}

// stampOrderSums accumulates the builder's stamps per coordinate in
// stamp order — the merge order Freeze promises.
func stampOrderSums(b *Builder) map[[2]int32]float64 {
	sums := map[[2]int32]float64{}
	for i := range b.vals {
		k := [2]int32{b.rows[i], b.cols[i]}
		sums[k] += b.vals[i]
	}
	return sums
}

// Regression for the Freeze duplicate-merge order: before the stamp-index
// tie-break, sort.Slice's unstable equal-key handling could merge
// duplicates of one coordinate in an arbitrary order, silently changing
// the float result of the compression. Duplicates must sum in stamp
// order.
func TestFreezeMergesDuplicatesInStampOrder(t *testing.T) {
	b := dupStampBuilder()
	want := stampOrderSums(b)
	m := b.Compress()
	for i := 0; i < m.N; i++ {
		for q := m.RowPtr[i]; q < m.RowPtr[i+1]; q++ {
			k := [2]int32{int32(i), m.Col[q]}
			if got := m.Val[q]; math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Fatalf("entry (%d,%d) = %g, want stamp-order sum %g (duplicate merge order is unstable)",
					i, m.Col[q], got, want[k])
			}
		}
	}
}

// Compress and Freeze+NewCSR+Scatter must stay bit-identical on a stamp
// stream whose duplicate groups are order-sensitive — the contract every
// matrix stamped over a frozen pattern builds on.
func TestFreezeScatterBitIdenticalToCompress(t *testing.T) {
	ref := dupStampBuilder().Compress()
	b := dupStampBuilder()
	p := b.Freeze()
	m := p.NewCSR()
	p.Scatter(m.Val, b.RawVals())
	if !StructureEqual(ref, m) {
		t.Fatal("Freeze+Scatter structure differs from Compress")
	}
	for i := range ref.Val {
		if math.Float64bits(ref.Val[i]) != math.Float64bits(m.Val[i]) {
			t.Fatalf("value slot %d: Scatter %g vs Compress %g (must be bit-identical)", i, m.Val[i], ref.Val[i])
		}
	}
	// A second scatter of the same stream through the same pattern must
	// reproduce the values again.
	m2 := p.NewCSR()
	p.Scatter(m2.Val, b.RawVals())
	for i := range m.Val {
		if math.Float64bits(m.Val[i]) != math.Float64bits(m2.Val[i]) {
			t.Fatalf("re-scatter diverged at slot %d", i)
		}
	}
}

// refFreeze is the specification Freeze is pinned to: stamp indices
// stable-sorted by (row, col), so duplicates keep stamping order, with
// one slot per distinct coordinate; slot[t] is stamp t's.
func refFreeze(b *Builder) (rowPtr, col, slot []int32) {
	order := make([]int32, len(b.vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(x, y int32) int {
		if c := cmp.Compare(b.rows[x], b.rows[y]); c != 0 {
			return c
		}
		return cmp.Compare(b.cols[x], b.cols[y])
	})
	rowPtr = make([]int32, b.n+1)
	slot = make([]int32, len(order))
	for i, t := range order {
		if p := order[max(i-1, 0)]; i == 0 || b.rows[t] != b.rows[p] || b.cols[t] != b.cols[p] {
			col = append(col, b.cols[t])
			rowPtr[b.rows[t]+1]++
		}
		slot[t] = int32(len(col) - 1)
	}
	for i := 0; i < b.n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return rowPtr, col, slot
}

// randomStream stamps k random coordinates of an n×n matrix. Rows are
// drawn from every other index only, so half the rows stay empty, and
// about one value in eight is zero, which Add skips.
func randomStream(rng *rand.Rand, n, k int) *Builder {
	b := NewBuilder(n)
	for s := 0; s < k; s++ {
		v := rng.NormFloat64()
		if rng.Intn(8) == 0 {
			v = 0
		}
		b.Add(rng.Intn((n+1)/2)*2, rng.Intn(n), v)
	}
	return b
}

// namedStream is one stamp stream the freeze pin runs on.
type namedStream struct {
	name string
	b    *Builder
}

// freezeStreams returns the pin's streams: no stamps, n = 1, the
// order-sensitive duplicate groups, rows stamped in descending order,
// duplicates of one coordinate far apart around a skipped zero, and
// seeded random streams with empty rows.
func freezeStreams() []namedStream {
	rng := rand.New(rand.NewSource(21))
	one := NewBuilder(1)
	for s := 0; s < 7; s++ {
		one.Add(0, 0, float64(s))
	}
	desc := NewBuilder(40)
	for i := 39; i >= 0; i-- {
		for j := 39; j >= 0; j -= 3 {
			desc.AddConductance(i, j, 1+float64(i*j))
		}
	}
	far := NewBuilder(30)
	far.Add(7, 3, 1)
	for s := 0; s < 500; s++ {
		far.Add(rng.Intn(30), rng.Intn(30), rng.NormFloat64())
	}
	far.Add(7, 3, 2)
	far.Add(7, 3, 0) // skipped
	far.Add(7, 3, 3)
	streams := []namedStream{
		{"no stamps", NewBuilder(5)},
		{"n=1", one},
		{"dup stamps", dupStampBuilder()},
		{"descending", desc},
		{"far duplicates", far},
	}
	for seed := 0; seed < 20; seed++ {
		n := 1 + rng.Intn(200)
		streams = append(streams, namedStream{fmt.Sprintf("random %d", seed), randomStream(rng, n, rng.Intn(8*n))})
	}
	return streams
}

// TestFreezeMatchesStableSortReference pins the counting-sort freeze to
// the stable (row, col) sort it replaces: equal row pointers, columns and
// per-stamp slots on every stream.
func TestFreezeMatchesStableSortReference(t *testing.T) {
	for _, s := range freezeStreams() {
		b := s.b
		p := b.Freeze()
		rowPtr, col, slot := refFreeze(b)
		for _, f := range []struct {
			field     string
			got, want []int32
		}{
			{"rowPtr", p.rowPtr, rowPtr},
			{"col", p.col, col},
			{"slot", p.slot, slot},
		} {
			if !slices.Equal(f.got, f.want) {
				t.Errorf("%s: %s = %v, want %v", s.name, f.field, f.got, f.want)
			}
		}
		if len(p.rowPtr) != b.n+1 || p.Stamps() != len(b.vals) {
			t.Errorf("%s: %d row pointers and %d stamps for n=%d and %d stamps", s.name, len(p.rowPtr), p.Stamps(), b.n, len(b.vals))
		}
	}
}

// TestFreezeAllocationsIndependentOfSize: Freeze allocates its pattern,
// three exactly-sized arrays and one stamp-sized scratch, however many
// stamps it orders — no growth of the column array.
func TestFreezeAllocationsIndependentOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	allocs := func(k int) float64 {
		b := randomStream(rng, 1000, k)
		return testing.AllocsPerRun(5, func() { b.Freeze() })
	}
	small, large := allocs(100), allocs(100_000)
	if small != large || large != 5 {
		t.Fatalf("Freeze allocates %v times for 100 stamps and %v for 100,000, want 5 for both", small, large)
	}
}

// stampStream issues one seeded stream of AddConductance and AddToGround
// calls, about one value in six zero, to a Builder or a Stamper alike.
func stampStream(s interface {
	AddConductance(i, j int, g float64)
	AddToGround(i int, g float64)
}, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 6*n; k++ {
		v := rng.NormFloat64()
		if rng.Intn(6) == 0 {
			v = 0
		}
		if i, j := rng.Intn(n), rng.Intn(n); i == j {
			s.AddToGround(i, v)
		} else {
			s.AddConductance(i, j, v)
		}
	}
}

// assertBitsEqual requires two value arrays to match bit for bit.
func assertBitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value slot %d = %g, want %g (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestStamperMatchesCompress: a stream stamped straight into a fresh
// CSR's values through the frozen pattern keeps Builder's zero skip and
// merge order, so the matrix is bit-identical to Compress's — also on the
// order-sensitive duplicate groups. A stamp past the frozen stream is
// counted, not added.
func TestStamperMatchesCompress(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 1 + int(seed)*17
		b := NewBuilder(n)
		stampStream(b, n, seed)
		p := b.Freeze()
		m := p.NewCSR()
		s := p.Stamper(m.Val)
		stampStream(s, n, seed)
		if s.Stamps() != p.Stamps() {
			t.Fatalf("seed %d: stamper kept %d stamps, the builder %d", seed, s.Stamps(), p.Stamps())
		}
		assertBitsEqual(t, fmt.Sprintf("seed %d", seed), m.Val, b.Compress().Val)
	}

	b := dupStampBuilder()
	p := b.Freeze()
	m := p.NewCSR()
	s := p.Stamper(m.Val)
	for _, v := range b.vals {
		s.add(v)
	}
	assertBitsEqual(t, "dup stamps", m.Val, b.Compress().Val)
	before := slices.Clone(m.Val)
	s.AddConductance(0, 1, 1)
	if s.Stamps() != p.Stamps()+4 {
		t.Errorf("stamper counted %d stamps after 4 extra, want %d", s.Stamps(), p.Stamps()+4)
	}
	assertBitsEqual(t, "past the stream", m.Val, before)
}
