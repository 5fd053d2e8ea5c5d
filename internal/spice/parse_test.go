package spice

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
)

// TestParseRoundTripSmall: the parser reads back everything WriteNetlist
// emits, and the rebuilt nodal system has the exact sparsity pattern of
// the originating model.
func TestParseRoundTripSmall(t *testing.T) {
	a, rhs := testModel(t)
	var sb strings.Builder
	if err := WriteNetlist(&sb, a.Model, rhs, "round trip"); err != nil {
		t.Fatal(err)
	}
	nl, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Title != "round trip" {
		t.Errorf("title %q, want %q", nl.Title, "round trip")
	}
	if nl.VDD != a.Model.VDD {
		t.Errorf("VDD %g, want %g", nl.VDD, a.Model.VDD)
	}
	if nl.Nodes != a.Model.N() {
		t.Errorf("%d nodes, want %d", nl.Nodes, a.Model.N())
	}
	if len(nl.Ties) != len(a.Model.Ties) {
		t.Errorf("%d ties, want %d", len(nl.Ties), len(a.Model.Ties))
	}
	if len(nl.Branches) == 0 || len(nl.Loads) == 0 {
		t.Fatalf("parsed %d branches and %d loads; want both > 0", len(nl.Branches), len(nl.Loads))
	}
	m2, rhs2, err := nl.System()
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.StructureEqual(a.Model.Matrix, m2) {
		t.Error("rebuilt matrix has a different sparsity pattern")
	}
	if len(rhs2) != len(rhs) {
		t.Fatalf("rebuilt rhs has %d entries, want %d", len(rhs2), len(rhs))
	}
}

// TestParseSolve: the convenience solver on a hand-written 2-node deck
// reproduces the analytic answer.
func TestParseSolve(t *testing.T) {
	deck := `* two-node divider
VDD vdd 0 DC 1.0
RT0 vdd n0 1
R0 n0 n1 1
I0 n1 0 DC 0.1
.op
.end
`
	nl, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := nl.Solve(solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Error("not converged")
	}
	// 0.1 A through the 1Ω tie: n0 = 1 − 0.1 = 0.9; no current into n1's
	// branch beyond the load: n1 = n0 − 0.1·1 = 0.8.
	if d := x[0] - 0.9; d > 1e-12 || d < -1e-12 {
		t.Errorf("v(n0) = %.15f, want 0.9", x[0])
	}
	if d := x[1] - 0.8; d > 1e-12 || d < -1e-12 {
		t.Errorf("v(n1) = %.15f, want 0.8", x[1])
	}
}

// TestParseErrors: every malformed-deck class is rejected, element-card
// errors carry their 1-based line number, and structural errors (missing
// .end, missing supply) are reported even for otherwise clean decks.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, deck string
		wantLine   int // 0: not a *ParseError
	}{
		{"no end card", "* t\nVDD vdd 0 DC 1\nRT0 vdd n0 1\n", 0},
		{"no supply", "* t\nRT0 vdd n0 1\n.end\n", 0},
		{"two supplies", "* t\nVDD vdd 0 DC 1\nVDD2 vdd 0 DC 1\n.end\n", 3},
		{"bad voltage", "* t\nVDD vdd 0 DC zap\n.end\n", 2},
		{"negative voltage", "* t\nVDD vdd 0 DC -1\n.end\n", 2},
		{"unknown card", "* t\nVDD vdd 0 DC 1\nC0 n0 n1 1p\n.end\n", 3},
		{"bad node name", "* t\nVDD vdd 0 DC 1\nR0 x0 n1 1\n.end\n", 3},
		{"negative node", "* t\nVDD vdd 0 DC 1\nR0 n-1 n1 1\n.end\n", 3},
		{"node count overflow", "* t\nVDD vdd 0 DC 1\nR0 n9223372036854775807 n1 1\n.end\n", 3},
		{"self loop", "* t\nVDD vdd 0 DC 1\nR0 n1 n1 1\n.end\n", 3},
		{"zero resistance", "* t\nVDD vdd 0 DC 1\nR0 n0 n1 0\n.end\n", 3},
		{"negative resistance", "* t\nVDD vdd 0 DC 1\nR0 n0 n1 -5\n.end\n", 3},
		{"inf resistance", "* t\nVDD vdd 0 DC 1\nR0 n0 n1 +Inf\n.end\n", 3},
		{"malformed tie", "* t\nVDD vdd 0 DC 1\nRT0 n0 n1 1\n.end\n", 3},
		{"malformed load", "* t\nVDD vdd 0 DC 1\nI0 n0 DC 1\n.end\n", 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.deck))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var pe *ParseError
			if c.wantLine > 0 {
				if !errors.As(err, &pe) {
					t.Fatalf("want *ParseError, got %T: %v", err, err)
				}
				if pe.Line != c.wantLine {
					t.Errorf("error on line %d, want %d: %v", pe.Line, c.wantLine, err)
				}
			}
		})
	}
}

// TestSystemRequiresTies: a deck with no supply ties is a singular
// system and must be rejected at rebuild time.
func TestSystemRequiresTies(t *testing.T) {
	deck := "* floating\nVDD vdd 0 DC 1\nR0 n0 n1 1\n.end\n"
	nl, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nl.System(); err == nil {
		t.Error("floating deck: want singular-system error from System")
	}
}

// hostileDeck parses, but its one tie names node 4·10¹², so a System that
// sized the matrix by the highest node index would allocate terabytes.
const hostileDeck = "VDD vdd 0 DC 1.0\nRT1 vdd n4000000000000 1\n.end\n"

// TestSystemRejectsUnreferencedNodes: a deck implying more nodes than its
// cards reference fails with a typed error before System allocates.
func TestSystemRejectsUnreferencedNodes(t *testing.T) {
	nl, err := Parse(strings.NewReader(hostileDeck))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = nl.System()
	var ue *UnreferencedNodesError
	if !errors.As(err, &ue) || ue.Nodes != 4000000000001 || ue.Refs != 1 {
		t.Fatalf("System err = %v, want *UnreferencedNodesError{Nodes: 4000000000001, Refs: 1}", err)
	}
}

// FuzzParse feeds arbitrary bytes to Parse and then System: the outcome is
// an error or a system sized by the nodes the deck's cards reference —
// never a panic, and never an allocation the deck's own size does not
// bound.
func FuzzParse(f *testing.F) {
	f.Add([]byte(hostileDeck))
	f.Add([]byte("* divider\nVDD vdd 0 DC 1.0\nRT0 vdd n0 1\nR0 n0 n1 1\nI0 n1 0 DC 0.1\n.end\n"))
	f.Add([]byte("VDD vdd 0 DC 1\nRT0 vdd n0 1\nR0 n9223372036854775807 n0 1\n.end\n"))
	f.Fuzz(func(t *testing.T, deck []byte) {
		nl, err := Parse(bytes.NewReader(deck))
		if err != nil {
			return
		}
		a, rhs, err := nl.System()
		if err != nil {
			return
		}
		if refs := 2*len(nl.Branches) + len(nl.Ties) + len(nl.Loads); nl.Nodes > refs {
			t.Fatalf("System accepted %d nodes for %d card references", nl.Nodes, refs)
		}
		if a.N != nl.Nodes || len(rhs) != nl.Nodes {
			t.Fatalf("system of order %d with %d-entry rhs for %d nodes", a.N, len(rhs), nl.Nodes)
		}
	})
}

// TestDegenerateBranchError pins the typed error WriteNetlist returns for
// a branch that cannot be expressed as a resistor line — the regression
// for the old behavior of silently skipping it (which emitted a deck that
// was NOT electrically equivalent to the model). The exact message is
// part of the contract: operators grep logs for it.
func TestDegenerateBranchError(t *testing.T) {
	t.Run("tie", func(t *testing.T) {
		a, rhs := testModel(t)
		a.Model.Ties[0].G = 0
		var sb strings.Builder
		err := WriteNetlist(&sb, a.Model, rhs, "degenerate")
		var de *DegenerateBranchError
		if !errors.As(err, &de) {
			t.Fatalf("want *DegenerateBranchError, got %T: %v", err, err)
		}
		if de.N2 != SupplyNode {
			t.Errorf("N2 = %d, want SupplyNode (%d)", de.N2, SupplyNode)
		}
		wantMsg := "spice: degenerate supply tie at n" +
			itoa(de.N1) + ": conductance 0 would emit R=inf"
		if err.Error() != wantMsg {
			t.Errorf("message %q, want %q", err.Error(), wantMsg)
		}
		if sb.Len() != 0 {
			t.Errorf("partial deck written before the error: %d bytes", sb.Len())
		}
	})
	t.Run("branch", func(t *testing.T) {
		a, rhs := testModel(t)
		// Flip one stored off-diagonal to a positive value: the implied
		// branch conductance g = -val becomes negative.
		m := a.Model.Matrix
		flipped := false
		var n1, n2 int
	scan:
		for i := 0; i < m.N; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if j := int(m.Col[p]); j > i {
					m.Val[p] = 0.001
					n1, n2 = i, j
					flipped = true
					break scan
				}
			}
		}
		if !flipped {
			t.Fatal("test model has no off-diagonal entries")
		}
		var sb strings.Builder
		err := WriteNetlist(&sb, a.Model, rhs, "degenerate")
		var de *DegenerateBranchError
		if !errors.As(err, &de) {
			t.Fatalf("want *DegenerateBranchError, got %T: %v", err, err)
		}
		if de.N1 != n1 || de.N2 != n2 {
			t.Errorf("branch (%d, %d), want (%d, %d)", de.N1, de.N2, n1, n2)
		}
		wantMsg := "spice: degenerate branch n" + itoa(n1) + "-n" + itoa(n2) +
			": conductance -0.001 would emit R=inf"
		if err.Error() != wantMsg {
			t.Errorf("message %q, want %q", err.Error(), wantMsg)
		}
		if sb.Len() != 0 {
			t.Errorf("partial deck written before the error: %d bytes", sb.Len())
		}
	})
}

func itoa(n int) string { return strconv.Itoa(n) }
