package diff

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pdn3d/internal/solve"
	"pdn3d/internal/spice"
)

// goodDeck is a well-formed 2×3 resistor grid with two supply ties and
// two loads, in the WriteNetlist dialect.
const goodDeck = `* imported sram pg grid
VDD vdd 0 DC 1.1
R0 n0 n1 2.5
R1 n1 n2 2.5
R2 n3 n4 2.5
R3 n4 n5 2.5
R4 n0 n3 1.25
R5 n1 n4 1.25
R6 n2 n5 1.25
RT0 vdd n0 0.5
RT1 vdd n5 0.5
I0 n2 0 DC 0.004
I1 n4 0 DC 0.002
.op
.end
`

// floatingDeck references node n5 from a load card but never wires it
// (or n3, n4) into the resistor network, so the rebuilt system has empty
// rows — a degenerate diagonal every iterative setup must reject with a
// typed error rather than dividing by zero.
const floatingDeck = `* deck with floating nodes
VDD vdd 0 DC 1.0
R0 n0 n1 1
R1 n1 n2 1
RT0 vdd n0 0.5
I0 n5 0 DC 0.001
.end
`

const malformedDeck = `* truncated resistor card
VDD vdd 0 DC 1.0
R0 n0 n1
.end
`

func writeDeck(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckDeckGood(t *testing.T) {
	p := writeDeck(t, t.TempDir(), "good.sp", goodDeck)
	rep, err := CheckDeck(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Title != "imported sram pg grid" || rep.Nodes != 6 {
		t.Fatalf("report header = %q / %d nodes", rep.Title, rep.Nodes)
	}
	if rep.Oracle != OracleCholesky {
		t.Fatalf("oracle = %q, want dense cholesky for a 6-node deck", rep.Oracle)
	}
	methods := solve.Methods()
	if len(rep.Runs) != len(methods) {
		t.Fatalf("got %d runs, want one per registered method (%d)", len(rep.Runs), len(methods))
	}
	for i, r := range rep.Runs {
		if r.Method != methods[i] {
			t.Errorf("run %d is %q, want %q", i, r.Method, methods[i])
		}
	}
	if rep.MaxRelErr > OracleRelTol {
		t.Fatalf("max rel err %g exceeds oracle bound %g", rep.MaxRelErr, OracleRelTol)
	}
}

func TestCheckDeckParseError(t *testing.T) {
	p := writeDeck(t, t.TempDir(), "bad.sp", malformedDeck)
	_, err := CheckDeck(p, Options{})
	var fe *FileError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FileError", err)
	}
	if fe.Stage != StageParse || fe.File != p {
		t.Fatalf("FileError = %+v, want parse stage for %s", fe, p)
	}
	var pe *spice.ParseError
	if !errors.As(err, &pe) || pe.Line != 3 {
		t.Fatalf("cause %v does not unwrap to the line-3 ParseError", err)
	}
}

func TestCheckDeckFloatingNodeSurfacesTypedError(t *testing.T) {
	p := writeDeck(t, t.TempDir(), "floating.sp", floatingDeck)
	// Force the cross-check oracle (cg-ic0) so the failure exercises the
	// iterative setup path: NewIC checks the diagonal before factorizing
	// and rejects the first empty row with the typed error.
	_, err := CheckDeck(p, Options{OracleMaxN: 1})
	var fe *FileError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FileError", err)
	}
	if fe.Stage != StageSolve {
		t.Fatalf("stage = %q, want solve", fe.Stage)
	}
	var de *solve.DegenerateDiagonalError
	if !errors.As(err, &de) {
		t.Fatalf("cause %v does not unwrap to a DegenerateDiagonalError", err)
	}
	if de.Node != 3 || de.Value != 0 {
		t.Fatalf("degenerate node = %d (value %g), want first empty row 3", de.Node, de.Value)
	}
}

func TestCheckDecksPartitionsOutcomes(t *testing.T) {
	dir := t.TempDir()
	writeDeck(t, dir, "a_good.sp", goodDeck)
	writeDeck(t, dir, "b_bad.sp", malformedDeck)
	reps, fails, err := CheckDecks(filepath.Join(dir, "*.sp"), Options{
		Methods: []string{solve.MethodCGAMG}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || len(fails) != 1 {
		t.Fatalf("got %d reports / %d failures, want 1 / 1", len(reps), len(fails))
	}
	if filepath.Base(reps[0].File) != "a_good.sp" {
		t.Fatalf("report for %s", reps[0].File)
	}
	if filepath.Base(fails[0].File) != "b_bad.sp" || fails[0].Stage != StageParse {
		t.Fatalf("failure = %+v", fails[0])
	}
	if fails[0].Msg == "" {
		t.Fatal("FileError.Msg not mirrored for the JSON report")
	}

	if _, _, err := CheckDecks(filepath.Join(dir, "*.cir"), Options{}); err == nil {
		t.Fatal("empty glob did not error")
	}
}
