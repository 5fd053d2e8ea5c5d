// Package lut builds the IR-drop look-up table at the heart of the paper's
// IR-drop-aware read policies (§5.2): for every memory state (per-die
// active-bank counts) and a set of per-die I/O activity levels, the maximum
// IR drop is pre-computed with the R-Mesh engine and stored for O(1)
// queries by the memory controller.
//
// The R-Mesh is linear and a die's loads depend only on its own banks and
// the I/O level, so a state's IR-drop vector is the idle stack's plus one
// response per active die. A build solves those 1 + D·maxPerDie responses
// per I/O level and sums them for each of the (maxPerDie+1)^D states,
// instead of solving every state.
package lut

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/par"
)

// ErrNotCovered is the sentinel every MaxIR miss wraps: the queried
// (state, io) point lies outside the built grid. Callers branch with
// errors.Is(err, ErrNotCovered) — the memory controller to stay
// conservative, the analysis server to answer HTTP 422 — and recover the
// offending point through errors.As with *NotCoveredError.
var ErrNotCovered = errors.New("lut: point not covered")

// NotCoveredError is a typed MaxIR miss carrying the offending key.
type NotCoveredError struct {
	// Counts is the queried per-die count vector.
	Counts []int
	// IO is the queried per-die I/O activity.
	IO float64
	// Reason says which axis fell outside the table.
	Reason string
}

func (e *NotCoveredError) Error() string {
	return fmt.Sprintf("lut: %v@%g not covered: %s", e.Counts, e.IO, e.Reason)
}

// Unwrap ties every miss to the ErrNotCovered sentinel.
func (e *NotCoveredError) Unwrap() error { return ErrNotCovered }

func notCovered(counts []int, io float64, format string, args ...interface{}) error {
	return &NotCoveredError{
		Counts: append([]int(nil), counts...),
		IO:     io,
		Reason: fmt.Sprintf(format, args...),
	}
}

// Table is an immutable IR-drop look-up table.
type Table struct {
	// Dies is the DRAM die count of the design.
	Dies int
	// MaxPerDie is the largest per-die active bank count covered
	// (2 for interleaving read, §2.3).
	MaxPerDie int
	// IOLevels are the covered per-die I/O activity levels, ascending.
	IOLevels []float64

	entries map[string]float64 // key -> max IR in volts
}

// DefaultIOLevels covers the paper's Table 5 activity points. With the
// shared zero-bubble bus, per-die activity is 1/k for k active dies, so
// these levels cover stacks of up to four dies exactly.
func DefaultIOLevels() []float64 { return []float64{0.25, 0.5, 1.0} }

// BuildWith is BuildCtx without cancellation.
func BuildWith(a *irdrop.Analyzer, maxPerDie int, ioLevels []float64, workers int) (*Table, error) {
	return BuildCtx(context.Background(), a, maxPerDie, ioLevels, workers)
}

// BuildCtx pre-computes the table for the analyzer's design: every state
// of at most maxPerDie active banks per die, placed worst-case at the die
// edge like the paper's Table 5, at every level in ioLevels. Solves and
// sums fan out on at most workers goroutines (<= 0 selects GOMAXPROCS);
// the table is identical for every worker count. ctx is polled at every
// solver iteration, so a cancelled build stops with ctx's error.
//
// At each level the build solves 1 + D·maxPerDie IR-drop responses — the
// idle stack, and die d alone running c banks for every d and c — and
// keeps only that level's responses (D = dies). A state's entry is the
// maximum over DRAM-die nodes of IR(idle) + Σ_d Δ_d(c_d), summed in die
// order by one worker, so entries do not depend on scheduling.
func BuildCtx(ctx context.Context, a *irdrop.Analyzer, maxPerDie int, ioLevels []float64, workers int) (*Table, error) {
	levels, err := checkGrid(maxPerDie, ioLevels)
	if err != nil {
		return nil, err
	}
	spec := a.Spec()
	dies := spec.NumDRAM
	place := memstate.WorstCaseEdge(spec.DRAM.NumBanks)
	// unit[0] is the idle stack; unit[d*maxPerDie+c] is die d running c
	// banks with every other die idle.
	unit := make([]memstate.State, 1+dies*maxPerDie)
	for k := range unit {
		counts := make([]int, dies)
		if k > 0 {
			counts[(k-1)/maxPerDie] = (k-1)%maxPerDie + 1
		}
		if unit[k], err = memstate.FromCounts(counts, place); err != nil {
			return nil, err
		}
	}
	states := memstate.EnumerateCounts(dies, maxPerDie)
	t := &Table{
		Dies:      dies,
		MaxPerDie: maxPerDie,
		IOLevels:  levels,
		entries:   make(map[string]float64, len(states)*len(levels)),
	}
	// basis[0] is IR(idle) and basis[k] the response to unit[k] leaving
	// idle, for the level at hand.
	basis := make([][]float64, len(unit))
	maxIR := make([]float64, len(states))
	for _, io := range levels {
		err := par.Sweep(workers, len(unit), func(k int) error {
			var from *memstate.State
			if k > 0 {
				from = &unit[0]
			}
			var err error
			basis[k], err = a.ResponseCtx(ctx, from, unit[k], io)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = par.Sweep(workers, len(states), func(i int) error {
			terms := make([][]float64, 1, 1+dies)
			terms[0] = basis[0]
			for d, c := range states[i] {
				if c > 0 {
					terms = append(terms, basis[d*maxPerDie+c])
				}
			}
			maxIR[i] = a.Model.SumMaxIR(terms)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, c := range states {
			t.entries[key(c, io)] = maxIR[i]
		}
	}
	return t, nil
}

// checkGrid validates a table grid and returns its I/O levels sorted.
func checkGrid(maxPerDie int, ioLevels []float64) ([]float64, error) {
	if maxPerDie < 1 {
		return nil, fmt.Errorf("lut: maxPerDie %d must be >= 1", maxPerDie)
	}
	if len(ioLevels) == 0 {
		return nil, fmt.Errorf("lut: no IO levels")
	}
	levels := append([]float64(nil), ioLevels...)
	sort.Float64s(levels)
	for _, io := range levels {
		if io <= 0 || io > 1 {
			return nil, fmt.Errorf("lut: IO level %g out of (0,1]", io)
		}
	}
	return levels, nil
}

// FromPoints assembles a table from explicit grid points — the inverse of
// Points — for loading precomputed tables and for tests that need a table
// with known contents without running solves.
func FromPoints(dies, maxPerDie int, ioLevels []float64, pts []Point) (*Table, error) {
	if dies < 1 {
		return nil, fmt.Errorf("lut: dies %d must be >= 1", dies)
	}
	levels, err := checkGrid(maxPerDie, ioLevels)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Dies:      dies,
		MaxPerDie: maxPerDie,
		IOLevels:  levels,
		entries:   make(map[string]float64, len(pts)),
	}
	for _, p := range pts {
		if len(p.Counts) != dies {
			return nil, fmt.Errorf("lut: point %v has %d dies, table covers %d", p.Counts, len(p.Counts), dies)
		}
		t.entries[key(p.Counts, p.IO)] = p.MaxIR
	}
	return t, nil
}

// Entries returns the number of stored (state, io) points.
func (t *Table) Entries() int { return len(t.entries) }

// MaxIR returns the maximum IR drop in volts for the given per-die counts
// at per-die I/O activity io. The io is rounded UP to the nearest covered
// level (conservative for constraint checks). A point outside the built
// grid — mismatched die count, a count above MaxPerDie, io above the top
// covered level — returns a *NotCoveredError wrapping ErrNotCovered.
func (t *Table) MaxIR(counts []int, io float64) (float64, error) {
	if len(counts) != t.Dies {
		return 0, notCovered(counts, io, "%d dies, table covers %d", len(counts), t.Dies)
	}
	for d, c := range counts {
		if c < 0 || c > t.MaxPerDie {
			return 0, notCovered(counts, io, "count %d on die %d outside [0,%d]", c, d+1, t.MaxPerDie)
		}
	}
	if top := t.IOLevels[len(t.IOLevels)-1]; io > top+1e-12 {
		return 0, notCovered(counts, io, "activity %g above the top covered level %g", io, top)
	}
	level := t.IOLevels[len(t.IOLevels)-1]
	for i := len(t.IOLevels) - 1; i >= 0; i-- {
		if t.IOLevels[i] >= io-1e-12 {
			level = t.IOLevels[i]
		} else {
			break
		}
	}
	v, ok := t.entries[key(counts, level)]
	if !ok {
		return 0, notCovered(counts, io, "no entry at covered level %g", level)
	}
	return v, nil
}

// Point is one stored (state, io) grid point.
type Point struct {
	// Counts is the per-die active-bank vector.
	Counts []int
	// IO is the per-die I/O activity level.
	IO float64
	// MaxIR is the stored maximum IR drop in volts.
	MaxIR float64
}

// Points returns every stored grid point in deterministic order
// (lexicographic states, then ascending I/O levels) — the /v1/lut dump
// format, byte-identical across worker counts and runs.
func (t *Table) Points() []Point {
	out := make([]Point, 0, len(t.entries))
	for _, counts := range memstate.EnumerateCounts(t.Dies, t.MaxPerDie) {
		for _, io := range t.IOLevels {
			v, ok := t.entries[key(counts, io)]
			if !ok {
				continue
			}
			out = append(out, Point{Counts: append([]int(nil), counts...), IO: io, MaxIR: v})
		}
	}
	return out
}

// WorstIR returns the largest IR drop stored in the table.
func (t *Table) WorstIR() float64 {
	var mx float64
	for _, v := range t.entries {
		if v > mx {
			mx = v
		}
	}
	return mx
}

func key(counts []int, io float64) string {
	var sb strings.Builder
	for i, c := range counts {
		if i > 0 {
			sb.WriteByte('-')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	fmt.Fprintf(&sb, "@%.4f", io)
	return sb.String()
}
