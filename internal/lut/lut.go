// Package lut builds the IR-drop look-up table at the heart of the paper's
// IR-drop-aware read policies (§5.2): for every memory state (per-die
// active-bank counts) and a set of per-die I/O activity levels, the maximum
// IR drop is pre-computed with the R-Mesh engine and stored for O(D)
// queries by the memory controller.
//
// The R-Mesh is linear and a state's loads are a weighted sum of fixed
// unit load terms whose weights alone depend on the I/O level (standby,
// the logic die, each die's I/O pattern, each bank). A build solves each
// term once, whatever the number of levels, weights and sums the terms
// into 1 + D·maxPerDie responses per level, and sums those for each of
// the (maxPerDie+1)^D states, instead of solving every state. The unit
// terms are solved in lockstep groups of up to four, which share their
// passes over the matrix and the IC(0) factor.
package lut

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/par"
	"pdn3d/internal/solve"
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
	// IOLevels are the covered per-die I/O activity levels, ascending and
	// distinct.
	IOLevels []float64

	// ir holds the max IR drop in volts of every grid point, state-major:
	// state s (memstate.StateIndex of its count vector, its position in
	// memstate.EnumerateCounts) at level l sits at ir[s*len(IOLevels)+l].
	// NaN marks an absent point.
	ir      []float64
	entries int
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
// The build solves each unit load term once (irdrop.Analyzer.ResponseCtx):
// the standby pattern of all dies, the logic load on an on-chip design,
// each die's I/O pattern and each bank the placement opens —
// 1 + D·(1 + maxPerDie) solves, plus one with a logic die, for any number
// of levels (D = dies). The solves run in lockstep groups of at most
// four terms, one group per worker at a time, each response
// bit-identical to a solve of its own. At each level it weighs them into
// 1 + D·maxPerDie level responses — the idle stack idle(io)·standby +
// logic, and die d running c banks, its banks' terms plus ioP(io)·I/O —
// each built by one worker in a fixed order. A state's entry is the
// maximum over DRAM-die nodes of the idle stack plus each active die's
// response, summed in die order by one worker, so entries do not depend
// on scheduling.
func BuildCtx(ctx context.Context, a *irdrop.Analyzer, maxPerDie int, ioLevels []float64, workers int) (*Table, error) {
	levels, err := checkGrid(maxPerDie, ioLevels)
	if err != nil {
		return nil, err
	}
	spec := a.Spec()
	dies := spec.NumDRAM
	t := newTable(dies, maxPerDie, levels)

	// The unit terms: standby, the logic load, then per die its I/O
	// pattern and the banks it opens. ioTerm[d] indexes die d's I/O term
	// and banks[d][c-1] the bank terms of die d running c banks.
	terms := []irdrop.Term{{Kind: irdrop.TermStandby}}
	logic := a.LogicPower != nil
	if logic {
		terms = append(terms, irdrop.Term{Kind: irdrop.TermLogic})
	}
	ioTerm := make([]int, dies)
	banks := make([][][]int, dies)
	place := memstate.WorstCaseEdge(spec.DRAM.NumBanks)
	for d := range banks {
		ioTerm[d] = len(terms)
		terms = append(terms, irdrop.Term{Kind: irdrop.TermIO, Die: d})
		termOf := map[int]int{}
		for c := 1; c <= maxPerDie; c++ {
			open, err := place(d, c)
			if err != nil {
				return nil, err
			}
			ks := make([]int, len(open))
			for j, b := range open {
				k, ok := termOf[b]
				if !ok {
					k = len(terms)
					termOf[b] = k
					terms = append(terms, irdrop.Term{Kind: irdrop.TermBank, Die: d, Bank: b})
				}
				ks[j] = k
			}
			banks[d] = append(banks[d], ks)
		}
	}
	// The terms are solved in lockstep groups of at most
	// solve.LockstepWidth, of near-equal size (13 terms: 3, 3, 3, 4), and
	// the groups fan out over the workers.
	unit := make([][]float64, len(terms))
	groups := (len(terms) + solve.LockstepWidth - 1) / solve.LockstepWidth
	err = par.Sweep(workers, groups, func(g int) error {
		lo, hi := g*len(terms)/groups, (g+1)*len(terms)/groups
		rs, err := a.ResponseCtx(ctx, terms[lo:hi])
		copy(unit[lo:hi], rs)
		return err
	})
	if err != nil {
		return nil, err
	}

	// resp[0] is the idle stack and resp[1+d*maxPerDie+c-1] die d running
	// c banks with every other die idle, at the level at hand.
	n := a.Model.N()
	resp := make([][]float64, 1+dies*maxPerDie)
	for k := range resp {
		resp[k] = make([]float64, n)
	}
	states := memstate.EnumerateCounts(dies, maxPerDie)
	for l, io := range levels {
		idle, ioP := a.DRAMPower.Weights(io)
		err := par.Sweep(workers, len(resp), func(k int) error {
			r := resp[k]
			if k == 0 {
				for i, v := range unit[0] {
					r[i] = idle * v
				}
				if logic {
					addTo(r, unit[1])
				}
				return nil
			}
			d, c := (k-1)/maxPerDie, (k-1)%maxPerDie+1
			ks := banks[d][c-1]
			copy(r, unit[ks[0]])
			for _, b := range ks[1:] {
				addTo(r, unit[b])
			}
			for i, v := range unit[ioTerm[d]] {
				r[i] += ioP * v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		err = par.Sweep(workers, len(states), func(s int) error {
			sum := make([][]float64, 1, 1+dies)
			sum[0] = resp[0]
			for d, c := range states[s] {
				if c > 0 {
					sum = append(sum, resp[1+d*maxPerDie+c-1])
				}
			}
			t.ir[s*len(levels)+l] = a.Model.SumMaxIR(sum)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	t.entries = len(t.ir)
	return t, nil
}

// addTo adds x into r element by element.
func addTo(r, x []float64) {
	for i, v := range x {
		r[i] += v
	}
}

// checkGrid validates a table grid and returns its I/O levels sorted,
// duplicates collapsed.
func checkGrid(maxPerDie int, ioLevels []float64) ([]float64, error) {
	if maxPerDie < 1 {
		return nil, fmt.Errorf("lut: maxPerDie %d must be >= 1", maxPerDie)
	}
	if len(ioLevels) == 0 {
		return nil, fmt.Errorf("lut: no IO levels")
	}
	for _, io := range ioLevels {
		if io <= 0 || io > 1 {
			return nil, fmt.Errorf("lut: IO level %g out of (0,1]", io)
		}
	}
	levels := slices.Clone(ioLevels)
	slices.Sort(levels)
	return slices.Compact(levels), nil
}

// newTable returns a table of the given grid with every point absent.
func newTable(dies, maxPerDie int, levels []float64) *Table {
	ir := make([]float64, memstate.StateCount(dies, maxPerDie)*len(levels))
	for i := range ir {
		ir[i] = math.NaN()
	}
	return &Table{Dies: dies, MaxPerDie: maxPerDie, IOLevels: levels, ir: ir}
}

// FromPoints assembles a table from explicit grid points — the inverse of
// Points — for loading precomputed tables and for tests that need a table
// with known contents without running solves. A point off the grid — a
// die count other than dies, a count outside [0, maxPerDie], an I/O that
// is not one of ioLevels — or without a value (NaN) is an error naming it.
// A repeated point keeps its last value.
func FromPoints(dies, maxPerDie int, ioLevels []float64, pts []Point) (*Table, error) {
	if dies < 1 {
		return nil, fmt.Errorf("lut: dies %d must be >= 1", dies)
	}
	levels, err := checkGrid(maxPerDie, ioLevels)
	if err != nil {
		return nil, err
	}
	t := newTable(dies, maxPerDie, levels)
	for _, p := range pts {
		if len(p.Counts) != dies {
			return nil, fmt.Errorf("lut: point %v has %d dies, table covers %d", p.Counts, len(p.Counts), dies)
		}
		s, bad := memstate.StateIndex(p.Counts, maxPerDie)
		if bad >= 0 {
			return nil, fmt.Errorf("lut: point %v@%g: count %d on die %d outside [0,%d]",
				p.Counts, p.IO, p.Counts[bad], bad+1, maxPerDie)
		}
		l := slices.Index(levels, p.IO)
		if l < 0 {
			return nil, fmt.Errorf("lut: point %v@%g: I/O %g is not one of the levels %v", p.Counts, p.IO, p.IO, levels)
		}
		if math.IsNaN(p.MaxIR) {
			return nil, fmt.Errorf("lut: point %v@%g has no value", p.Counts, p.IO)
		}
		k := s*len(levels) + l
		if math.IsNaN(t.ir[k]) {
			t.entries++
		}
		t.ir[k] = p.MaxIR
	}
	return t, nil
}

// Entries returns the number of stored (state, io) points.
func (t *Table) Entries() int { return t.entries }

// MaxIR returns the maximum IR drop in volts for the given per-die counts
// at per-die I/O activity io. The io is rounded UP to the nearest covered
// level (conservative for constraint checks). A point outside the built
// grid — mismatched die count, a count outside [0, MaxPerDie], io above
// the top covered level, or a point the table does not hold — returns a
// *NotCoveredError wrapping ErrNotCovered. A covered lookup indexes the
// grid in O(D), after a scan of the L levels, and allocates nothing.
func (t *Table) MaxIR(counts []int, io float64) (float64, error) {
	if len(counts) != t.Dies {
		return 0, notCovered(counts, io, "%d dies, table covers %d", len(counts), t.Dies)
	}
	s, bad := memstate.StateIndex(counts, t.MaxPerDie)
	if bad >= 0 {
		return 0, notCovered(counts, io, "count %d on die %d outside [0,%d]", counts[bad], bad+1, t.MaxPerDie)
	}
	l := len(t.IOLevels) - 1
	if top := t.IOLevels[l]; io > top+1e-12 {
		return 0, notCovered(counts, io, "activity %g above the top covered level %g", io, top)
	}
	for l > 0 && t.IOLevels[l-1] >= io-1e-12 {
		l--
	}
	v := t.ir[s*len(t.IOLevels)+l]
	if math.IsNaN(v) {
		return 0, notCovered(counts, io, "no entry at covered level %g", t.IOLevels[l])
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
	out := make([]Point, 0, t.entries)
	for s, counts := range memstate.EnumerateCounts(t.Dies, t.MaxPerDie) {
		for l, io := range t.IOLevels {
			if v := t.ir[s*len(t.IOLevels)+l]; !math.IsNaN(v) {
				out = append(out, Point{Counts: append([]int(nil), counts...), IO: io, MaxIR: v})
			}
		}
	}
	return out
}

// WorstIR returns the largest IR drop stored in the table.
func (t *Table) WorstIR() float64 {
	var mx float64
	for _, v := range t.ir {
		if v > mx { // false for an absent (NaN) point
			mx = v
		}
	}
	return mx
}
