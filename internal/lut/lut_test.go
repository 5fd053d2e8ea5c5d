package lut

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
)

var (
	sharedOnce     sync.Once
	sharedAnalyzer *irdrop.Analyzer
	sharedTable    *Table
	sharedErr      error
)

func coarseAnalyzer(t testing.TB) *irdrop.Analyzer {
	t.Helper()
	sharedSetup(t)
	return sharedAnalyzer
}

// sharedTableFor builds the default table once; its 13 unit-term solves
// would otherwise be repeated by every test that reads it.
func sharedTableFor(t testing.TB) *Table {
	t.Helper()
	sharedSetup(t)
	return sharedTable
}

func sharedSetup(t testing.TB) {
	t.Helper()
	sharedOnce.Do(func() {
		b, err := bench3d.StackedDDR3Off()
		if err != nil {
			sharedErr = err
			return
		}
		spec := b.Spec.Clone()
		spec.MeshPitch = 0.6
		sharedAnalyzer, sharedErr = irdrop.New(spec, b.DRAMPower, nil)
		if sharedErr != nil {
			return
		}
		sharedTable, sharedErr = BuildWith(sharedAnalyzer, 2, DefaultIOLevels(), 0)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
}

func TestBuildCoversAllStates(t *testing.T) {
	table := sharedTableFor(t)
	if want := 81 * 3; table.Entries() != want {
		t.Fatalf("entries = %d, want %d (3^4 states x 3 IO levels)", table.Entries(), want)
	}
	if table.Dies != 4 || table.MaxPerDie != 2 {
		t.Errorf("table geometry %d dies / %d max, want 4/2", table.Dies, table.MaxPerDie)
	}
}

func TestLookupMonotoneInBanksAndIO(t *testing.T) {
	table := sharedTableFor(t)
	v1, err := table.MaxIR([]int{0, 0, 0, 1}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := table.MaxIR([]int{0, 0, 0, 2}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("two banks (%.2f mV) should exceed one (%.2f mV)", v2*1000, v1*1000)
	}
	lo, _ := table.MaxIR([]int{0, 0, 0, 2}, 0.25)
	hi, _ := table.MaxIR([]int{0, 0, 0, 2}, 1.0)
	if hi <= lo {
		t.Errorf("IR at 100%% IO (%.2f) should exceed 25%% (%.2f)", hi*1000, lo*1000)
	}
}

func TestLookupRoundsIOUp(t *testing.T) {
	table := sharedTableFor(t)
	// 1/3 is not a level: must round UP to 0.5 (conservative).
	third, err := table.MaxIR([]int{2, 2, 2, 0}, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	half, err := table.MaxIR([]int{2, 2, 2, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(third-half) > 1e-15 {
		t.Errorf("io=1/3 lookup %.4f should equal the 0.5 level %.4f", third, half)
	}
	// Above the top level clamps to the top level.
	top, _ := table.MaxIR([]int{0, 0, 0, 2}, 1.0)
	over, err := table.MaxIR([]int{0, 0, 0, 2}, 0.999999)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(over-top) > 1e-15 {
		t.Error("io just under 1.0 should use the 1.0 level")
	}
}

// Every miss path is a typed *NotCoveredError wrapping ErrNotCovered and
// carrying the offending key, so callers can branch (HTTP 422, policy
// miss counters) and report the point without string matching.
func TestLookupErrorsAreTyped(t *testing.T) {
	table := sharedTableFor(t)
	tests := []struct {
		name   string
		counts []int
		io     float64
	}{
		{"wrong die count", []int{0, 0, 0}, 1.0},
		{"count above MaxPerDie", []int{0, 0, 0, 3}, 1.0},
		{"negative count", []int{0, 0, 0, -1}, 1.0},
		{"io above top level", []int{0, 0, 0, 2}, 1.5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := table.MaxIR(tc.counts, tc.io)
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, ErrNotCovered) {
				t.Fatalf("error %v does not wrap ErrNotCovered", err)
			}
			var nce *NotCoveredError
			if !errors.As(err, &nce) {
				t.Fatalf("error %v is not a *NotCoveredError", err)
			}
			if !reflect.DeepEqual(nce.Counts, tc.counts) || nce.IO != tc.io {
				t.Errorf("error key = %v@%g, want %v@%g", nce.Counts, nce.IO, tc.counts, tc.io)
			}
		})
	}
}

// Points dumps the grid deterministically: lexicographic states, ascending
// IO levels, full coverage.
func TestPointsDeterministicAndComplete(t *testing.T) {
	table := sharedTableFor(t)
	pts := table.Points()
	if len(pts) != table.Entries() {
		t.Fatalf("Points returned %d entries, table has %d", len(pts), table.Entries())
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		cmp := 0
		for d := range a.Counts {
			if a.Counts[d] != b.Counts[d] {
				cmp = a.Counts[d] - b.Counts[d]
				break
			}
		}
		if cmp > 0 || (cmp == 0 && a.IO >= b.IO) {
			t.Fatalf("points out of order at %d: %v@%g then %v@%g", i, a.Counts, a.IO, b.Counts, b.IO)
		}
	}
	for _, p := range pts {
		v, err := table.MaxIR(p.Counts, p.IO)
		if err != nil || v != p.MaxIR {
			t.Fatalf("point %v@%g disagrees with MaxIR: %g vs %g (%v)", p.Counts, p.IO, p.MaxIR, v, err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	a := coarseAnalyzer(t)
	if _, err := BuildWith(a, 0, DefaultIOLevels(), 0); err == nil {
		t.Error("maxPerDie 0: want error")
	}
	if _, err := BuildWith(a, 2, nil, 0); err == nil {
		t.Error("no IO levels: want error")
	}
	if _, err := BuildWith(a, 2, []float64{0, 0.5}, 0); err == nil {
		t.Error("IO level 0: want error")
	}
	if _, err := BuildWith(a, 2, []float64{0.5, 1.5}, 0); err == nil {
		t.Error("IO level > 1: want error")
	}
}

func TestWorstIRIsFullActivity(t *testing.T) {
	table := sharedTableFor(t)
	worst := table.WorstIR()
	if worst <= 0 {
		t.Fatal("worst IR must be positive")
	}
	full, err := table.MaxIR([]int{2, 2, 2, 2}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if worst < full {
		t.Errorf("worst %.4f below the 2-2-2-2@100%% entry %.4f", worst, full)
	}
}

// A covered lookup indexes the dense grid and allocates nothing: the
// memory controller makes one or two per simulated cycle.
func TestMaxIRAllocatesNothing(t *testing.T) {
	table := sharedTableFor(t)
	counts := []int{2, 0, 1, 2}
	var v float64
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if v, err = table.MaxIR(counts, 1.0/3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MaxIR allocated %g times per call, want 0", allocs)
	}
	if want, _ := table.MaxIR(counts, 0.5); v != want {
		t.Errorf("io 1/3 read %g, want the 0.5 level's %g", v, want)
	}
}

// FromPoints refuses a point no lookup could read, naming it, instead of
// storing it where Entries counts it and Points omits it.
func TestFromPointsRefusesOffGridPoints(t *testing.T) {
	levels := []float64{0.5, 1.0}
	for _, tc := range []struct {
		name string
		p    Point
		want string
	}{
		{"I/O not a level", Point{Counts: []int{1, 0}, IO: 0.75, MaxIR: 0.01}, "[1 0]@0.75"},
		{"count above maxPerDie", Point{Counts: []int{3, 0}, IO: 0.5, MaxIR: 0.01}, "[3 0]@0.5"},
		{"negative count", Point{Counts: []int{0, -1}, IO: 1.0, MaxIR: 0.01}, "[0 -1]@1"},
		{"wrong die count", Point{Counts: []int{0, 0, 0}, IO: 1.0, MaxIR: 0.01}, "[0 0 0]"},
		{"no value", Point{Counts: []int{0, 0}, IO: 1.0, MaxIR: math.NaN()}, "[0 0]@1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ok := Point{Counts: []int{0, 0}, IO: 0.5, MaxIR: 0.01}
			_, err := FromPoints(2, 2, levels, []Point{ok, tc.p})
			if err == nil {
				t.Fatalf("point %v@%g: want an error", tc.p.Counts, tc.p.IO)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the point %s", err, tc.want)
			}
		})
	}
}

// Duplicate levels collapse, and a repeated point is stored once, so
// Entries always equals len(Points()); an absent point is a typed miss.
func TestFromPointsEntriesMatchPoints(t *testing.T) {
	pts := []Point{
		{Counts: []int{0, 1}, IO: 0.5, MaxIR: 0.010},
		{Counts: []int{0, 1}, IO: 0.5, MaxIR: 0.012},
		{Counts: []int{2, 2}, IO: 1.0, MaxIR: 0.020},
	}
	table, err := FromPoints(2, 2, []float64{1.0, 0.5, 0.5}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(table.IOLevels, []float64{0.5, 1.0}) {
		t.Errorf("levels %v, want [0.5 1]", table.IOLevels)
	}
	got := table.Points()
	if table.Entries() != 2 || len(got) != 2 {
		t.Fatalf("Entries %d, %d points; want 2 and 2", table.Entries(), len(got))
	}
	if got[0].MaxIR != 0.012 {
		t.Errorf("repeated point kept %g, want the last value 0.012", got[0].MaxIR)
	}
	if table.WorstIR() != 0.020 {
		t.Errorf("WorstIR %g, want 0.020", table.WorstIR())
	}
	if _, err := table.MaxIR([]int{1, 1}, 0.5); !errors.Is(err, ErrNotCovered) {
		t.Errorf("absent point: err %v, want ErrNotCovered", err)
	}
}
