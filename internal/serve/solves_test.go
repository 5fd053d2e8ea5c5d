package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"pdn3d/internal/obs"
)

func TestDebugSolvesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{SolveBufSize: 8})
	resp, _ := post(t, ts.URL+"/v1/analyze", goodQuery)
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("analyze response missing X-Trace-Id")
	}

	_, body := getBody(t, ts.URL+"/debug/solves")
	var b debugBody[obs.SolveRecord]
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	if b.Added < 1 || len(b.Recent) < 1 || len(b.Worst) < 1 {
		t.Fatalf("no solve records after an analyze: %s", body)
	}
	rec := b.Recent[0]
	if rec.ID == "" || rec.Method == "" || rec.N == 0 || rec.Iterations == 0 {
		t.Fatalf("record missing identity/stats: %+v", rec)
	}
	if rec.TraceID != traceID {
		t.Fatalf("record trace_id = %q, want the request's %q", rec.TraceID, traceID)
	}
	if rec.Termination != obs.TermConverged || !rec.Converged {
		t.Fatalf("healthy solve record: %+v, want converged", rec)
	}
	if rec.CondEst <= 1 {
		t.Fatalf("cond_est = %g, want > 1", rec.CondEst)
	}
	if !(rec.Balance > 0 && rec.Balance <= 1e-6) {
		t.Fatalf("balance = %g, want the answer's Kirchhoff balance in (0, 1e-6]", rec.Balance)
	}
	if len(rec.Alphas) != rec.Iterations || len(rec.Residuals) == 0 {
		t.Fatalf("trajectory missing: %d alphas, %d residuals for %d iterations",
			len(rec.Alphas), len(rec.Residuals), rec.Iterations)
	}

	// ?id= accepts the solve ID and the trace ID, returning the same record.
	for _, id := range []string{rec.ID, traceID} {
		resp, body := getBody(t, ts.URL+"/debug/solves?id="+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("id=%q status = %d: %s", id, resp.StatusCode, body)
		}
		var one obs.SolveRecord
		if err := json.Unmarshal(body, &one); err != nil {
			t.Fatal(err)
		}
		if one.ID != rec.ID {
			t.Fatalf("id=%q returned record %q, want %q", id, one.ID, rec.ID)
		}
	}
	if resp, body := getBody(t, ts.URL+"/debug/solves?id=s-99999"); resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "error") {
		t.Fatalf("unknown id: status %d body %s, want 404 envelope", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/debug/solves", "{}"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// paperBenches are the four packaging configurations of the source paper
// — the workload the worker-count determinism contract is pinned on.
var paperBenches = []string{"ddr3-off", "ddr3-on", "wideio", "hmc"}

// solveShapes fetches /debug/solves and returns the retained records
// newest-first with the run-local identifiers (solve and trace IDs)
// cleared, marshaled for byte comparison.
func solveShapes(t *testing.T, base string) []byte {
	t.Helper()
	_, body := getBody(t, base+"/debug/solves")
	var b debugBody[obs.SolveRecord]
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Recent {
		b.Recent[i].ID = ""
		b.Recent[i].TraceID = ""
	}
	out, err := json.Marshal(b.Recent)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSolveRecordShapeWorkerDeterminism: a solve's answer does not
// depend on how many batch workers run beside it, so the recorded solve
// shapes — residual histories, coefficients, condition estimates,
// terminations — must be byte-identical between a 1-worker and an
// 8-worker server on the paper's four packaging designs.
func TestSolveRecordShapeWorkerDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		_, ts := newTestServer(t, Config{Workers: workers, SolveBufSize: 16})
		for _, bench := range paperBenches {
			q := fmt.Sprintf(`{"bench":%q,"state":"0-0-0-2","io":1.0}`, bench)
			if resp, body := post(t, ts.URL+"/v1/analyze", q); resp.StatusCode != http.StatusOK {
				t.Fatalf("bench %s status = %d: %s", bench, resp.StatusCode, body)
			}
		}
		return solveShapes(t, ts.URL)
	}
	w1, w8 := run(1), run(8)
	if string(w1) != string(w8) {
		t.Fatalf("solve-record shapes differ between workers 1 and 8:\n1: %s\n8: %s", w1, w8)
	}
}

// TestSolveHistogramsDeterministic: the iteration and condition-estimate
// histograms carry worker-count-independent values, so they must survive
// Deterministic() (unlike the wall-clock latency histograms) and reach
// the Prometheus exposition.
func TestSolveHistogramsDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", goodQuery)
	det := s.reg.Snapshot().Deterministic()
	for _, name := range []string{"serve.solve.iterations", "serve.solve.cond_est"} {
		h, ok := det.Histograms[name]
		if !ok {
			t.Fatalf("deterministic snapshot missing %q", name)
		}
		if h.Count < 1 {
			t.Errorf("%s count = %d, want >= 1", name, h.Count)
		}
	}
	prom := string(s.reg.PromText())
	for _, want := range []string{
		"# TYPE serve_solve_iterations histogram",
		"serve_solve_iterations_bucket",
		"# TYPE serve_solve_cond_est histogram",
		"serve_solve_cond_est_bucket",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestSolveBalanceHistogram: serve.solve.balance observes the Kirchhoff
// balance of every committed solve record that carries one — the Analyze
// solve and each LUT term response — joins the deterministic snapshot,
// and reaches the Prometheus exposition with 1e-6 as a bucket edge.
func TestSolveBalanceHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{SolveBufSize: 64})
	for _, req := range []struct{ path, body string }{
		{"/v1/analyze", goodQuery},
		{"/v1/lut", `{"bench":"ddr3-off","io_levels":[1.0]}`},
	} {
		if resp, body := post(t, ts.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d: %s", req.path, resp.StatusCode, body)
		}
	}
	_, body := getBody(t, ts.URL+"/debug/solves")
	var b debugBody[obs.SolveRecord]
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if int(b.Added) != len(b.Recent) {
		t.Fatalf("buffer retained %d of %d records; the count below needs them all", len(b.Recent), b.Added)
	}
	var balanced int64
	for _, rec := range b.Recent {
		if rec.Balance > 0 {
			balanced++
		}
	}
	if balanced < 2 {
		t.Fatalf("%d records carry a balance, want the analyze solve and the LUT terms", balanced)
	}
	h, ok := s.reg.Snapshot().Deterministic().Histograms["serve.solve.balance"]
	if !ok {
		t.Fatal(`deterministic snapshot missing "serve.solve.balance"`)
	}
	if h.Count != balanced {
		t.Fatalf("serve.solve.balance count = %d, want %d (one per record with a balance)", h.Count, balanced)
	}
	prom := string(s.reg.PromText())
	for _, want := range []string{
		"# TYPE serve_solve_balance histogram",
		`serve_solve_balance_bucket{le="1e-06"} `,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
