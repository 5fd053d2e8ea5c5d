package solve

import (
	"errors"
	"strconv"
	"testing"

	"pdn3d/internal/obs"
)

// solveSpanAttrs runs one traced CG solve and returns the attributes the
// core annotated onto the span.
func solveSpanAttrs(t *testing.T, opt CGOptions) (CGStats, map[string]string, error) {
	t.Helper()
	a := grid2D(10, 10)
	tr := obs.NewTrace("")
	sp := tr.Span("solve")
	opt.Span = sp
	_, st, err := defaultSolve(a, benchRHS(a.N), opt)
	sp.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(snap.Spans))
	}
	return st, snap.Spans[0].Attrs, err
}

func TestCGAnnotatesSpan(t *testing.T) {
	st, attrs, err := solveSpanAttrs(t, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := attrs["iterations"]; got != strconv.Itoa(st.Iterations) {
		t.Fatalf("span iterations = %q, stats say %d", got, st.Iterations)
	}
	if attrs["converged"] != "true" {
		t.Fatalf("span converged = %q, want true", attrs["converged"])
	}
	res, perr := strconv.ParseFloat(attrs["residual"], 64)
	if perr != nil || res != st.Residual {
		t.Fatalf("span residual = %q, stats say %g", attrs["residual"], st.Residual)
	}
}

func TestCGAnnotatesSpanOnFailure(t *testing.T) {
	// One iteration on a 100-node grid cannot converge at 1e-12.
	st, attrs, err := solveSpanAttrs(t, CGOptions{Tol: 1e-12, MaxIter: 1})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if attrs["converged"] != "false" || attrs["iterations"] != strconv.Itoa(st.Iterations) {
		t.Fatalf("failure span attrs = %v (stats %+v)", attrs, st)
	}
}

func TestCGNilSpanUnchangedResults(t *testing.T) {
	a := grid2D(10, 10)
	rhs := benchRHS(a.N)
	xPlain, stPlain, err := defaultSolve(a, rhs, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	sp := tr.Span("solve")
	xTraced, stTraced, err := defaultSolve(a, rhs, CGOptions{Span: sp})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if stPlain != stTraced {
		t.Fatalf("tracing changed stats: %+v vs %+v", stPlain, stTraced)
	}
	for i := range xPlain {
		if xPlain[i] != xTraced[i] {
			t.Fatalf("tracing changed solution at %d: %g vs %g", i, xPlain[i], xTraced[i])
		}
	}
}
