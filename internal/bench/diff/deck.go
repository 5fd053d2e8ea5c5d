package diff

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pdn3d/internal/solve"
	"pdn3d/internal/spice"
)

// This file extends the differential harness to externally-supplied SPICE
// decks (SRAM/DRAM power-grid netlists in the WriteNetlist dialect):
// every deck on disk is parsed through internal/spice, rebuilt into its
// nodal system, and battered against the same oracle/cross-check regime
// as the synthetic corpus. Import failures are typed per file so a batch
// run reports exactly which deck broke and at which stage.

// Deck-import stages, in pipeline order.
const (
	StageOpen   = "open"   // reading the file
	StageParse  = "parse"  // spice.Parse
	StageSystem = "system" // Netlist.System (nodal assembly)
	StageSolve  = "solve"  // solver setup or solve (degenerate systems land here)
)

// FileError is a typed per-file import failure: which deck, which stage
// of the import pipeline, and the underlying cause (unwrappable, so
// errors.As reaches spice.ParseError or solve.DegenerateDiagonalError).
type FileError struct {
	File  string `json:"file"`
	Stage string `json:"stage"`
	Err   error  `json:"-"`
	// Msg mirrors Err for the JSON report.
	Msg string `json:"error"`
}

func (e *FileError) Error() string {
	return fmt.Sprintf("diff: deck %s: %s: %v", e.File, e.Stage, e.Err)
}

func (e *FileError) Unwrap() error { return e.Err }

func fileErr(file, stage string, err error) *FileError {
	return &FileError{File: file, Stage: stage, Err: err, Msg: err.Error()}
}

// DeckReport is the differential outcome for one imported deck. It
// mirrors MeshReport minus the legs that need a live rmesh model (restamp
// replay and the SPICE round trip): an external deck is a standalone
// system.
type DeckReport struct {
	File   string `json:"file"`
	Title  string `json:"title,omitempty"`
	Nodes  int    `json:"nodes"`
	NNZ    int    `json:"nnz"`
	Oracle string `json:"oracle"`
	Runs   []Run  `json:"runs"`
	// MaxRelErr is the worst RelErr over Runs.
	MaxRelErr float64 `json:"max_rel_err"`
}

// CheckDeck imports one SPICE deck from disk and runs every requested
// solver against the oracle (dense Cholesky when the system is small
// enough, cross-check against the default method otherwise). Any failure
// is returned as a *FileError naming the pipeline stage.
func CheckDeck(path string, opt Options) (*DeckReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fileErr(path, StageOpen, err)
	}
	defer f.Close()
	nl, err := spice.Parse(f)
	if err != nil {
		return nil, fileErr(path, StageParse, err)
	}
	a, rhs, err := nl.System()
	if err != nil {
		return nil, fileErr(path, StageSystem, err)
	}
	rep := &DeckReport{File: path, Title: nl.Title, Nodes: a.N, NNZ: a.NNZ()}

	cg := solve.CGOptions{Tol: opt.tol()}
	var ref []float64
	if a.N <= opt.oracleMaxN() {
		rep.Oracle = OracleCholesky
		c, err := solve.NewCholesky(a)
		if err == nil {
			ref, err = c.Solve(rhs)
		}
		if err != nil {
			return nil, fileErr(path, StageSolve, err)
		}
	} else {
		method := solve.MethodFor("", a.N)
		rep.Oracle = "cross:" + method
		s, err := solve.New(a, solve.Options{Method: method, Workers: opt.Workers})
		if err == nil {
			ref, _, err = s.Solve(rhs, cg)
		}
		if err != nil {
			return nil, fileErr(path, StageSolve, err)
		}
	}

	for _, method := range opt.methods() {
		s, err := solve.New(a, solve.Options{Method: method, Workers: opt.Workers})
		if err != nil {
			return nil, fileErr(path, StageSolve, fmt.Errorf("%s: %w", method, err))
		}
		x, stats, err := s.Solve(rhs, cg)
		if err != nil {
			return nil, fileErr(path, StageSolve, fmt.Errorf("%s: %w", method, err))
		}
		run := Run{
			Method:     method,
			Iterations: stats.Iterations,
			Residual:   stats.Residual,
			RelErr:     RelErr(x, ref),
		}
		rep.Runs = append(rep.Runs, run)
		if run.RelErr > rep.MaxRelErr {
			rep.MaxRelErr = run.RelErr
		}
	}
	return rep, nil
}

// CheckDecks expands a glob, imports every matching deck, and partitions
// the outcomes: reports for decks that pass, typed errors for decks that
// fail at any stage. The returned error is non-nil only when the glob
// itself is invalid or matches nothing — per-deck failures are data, not
// an abort, so one corrupt deck cannot hide the report for the rest.
func CheckDecks(pattern string, opt Options) ([]*DeckReport, []*FileError, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, nil, fmt.Errorf("diff: bad import glob %q: %w", pattern, err)
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("diff: import glob %q matches no files", pattern)
	}
	sort.Strings(paths)
	var reps []*DeckReport
	var fails []*FileError
	for _, p := range paths {
		rep, err := CheckDeck(p, opt)
		if err != nil {
			var fe *FileError
			if !errors.As(err, &fe) {
				fe = fileErr(p, StageOpen, err)
			}
			fails = append(fails, fe)
			continue
		}
		reps = append(reps, rep)
	}
	return reps, fails, nil
}
