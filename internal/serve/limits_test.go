package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdn3d/internal/query"
	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
)

// hostilePitch passes every per-field check yet asks for ~4.6·10¹³ nodes
// per mesh layer; building it would exhaust memory.
const hostilePitch = `{"bench":"ddr3-off","state":"0-0-0-1","io":1,"pitch":1e-6}`

func errorText(t *testing.T, body []byte) string {
	t.Helper()
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("error body %s not {error: ...}", body)
	}
	return eb.Error
}

// TestMeshBudgetRejectsHostilePitch: a pitch whose mesh exceeds the node
// budget is a 400 naming the pitch field, on both the analyze and LUT
// paths, and the server goes on serving.
func TestMeshBudgetRejectsHostilePitch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/analyze", hostilePitch},
		{"/v1/analyze", `{"bench":"ddr3-off","state":"0-0-0-1","io":1,"pitch":0.001}`},
		{"/v1/lut", `{"bench":"ddr3-off","pitch":1e-6}`},
	} {
		resp, body := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status = %d, want 400 (body %s)", c.path, c.body, resp.StatusCode, body)
		}
		if msg := errorText(t, body); !strings.Contains(msg, "-pitch") {
			t.Errorf("%s: error %q does not name the pitch field", c.path, msg)
		}
	}
	_, body := post(t, ts.URL+"/v1/batch", `{"queries":[`+hostilePitch+`]}`)
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 1 || br.Results[0].Status != http.StatusBadRequest {
		t.Fatalf("batch item for the hostile pitch: %s, want status 400", body)
	}
	if resp, body := post(t, ts.URL+"/v1/analyze", goodQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status = %d, body %s", resp.StatusCode, body)
	}
}

// hostileTSV passes every per-field check yet asks for 10⁹ TSV sites; the
// site generators would allocate one point per TSV.
const hostileTSV = `{"bench":"ddr3-off","state":"0-0-0-1","io":1,"tsv":1000000000}`

// TestTSVBoundRejectsHostileCount: a TSV count above the sites that fit
// the die is a 400 naming the tsv field on the analyze, LUT and batch
// paths, and the server goes on serving.
func TestTSVBoundRejectsHostileCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/analyze", hostileTSV},
		{"/v1/lut", `{"bench":"ddr3-off","tsv":1000000000}`},
	} {
		resp, body := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status = %d, want 400 (body %s)", c.path, c.body, resp.StatusCode, body)
		}
		if msg := errorText(t, body); !strings.Contains(msg, "-tsv") {
			t.Errorf("%s: error %q does not name the tsv field", c.path, msg)
		}
	}
	_, body := post(t, ts.URL+"/v1/batch", `{"queries":[`+hostileTSV+`,`+goodQuery+`]}`)
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 2 ||
		br.Results[0].Status != http.StatusBadRequest || br.Results[1].Status != http.StatusOK {
		t.Fatalf("batch of the hostile TSV count and a good query: %s, want statuses 400 and 200", body)
	}
	if resp, body := post(t, ts.URL+"/v1/analyze", goodQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestLUTIOLevelsOutOfRange: an I/O level outside (0,1] is a 400 naming
// io_levels, refused before any analyzer is built or solve run.
func TestLUTIOLevelsOutOfRange(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, levels := range []string{"[1.5]", "[-0.5]", "[0]", "[0.5,1.5]"} {
		resp, body := post(t, ts.URL+"/v1/lut", `{"bench":"ddr3-off","max_per_die":1,"io_levels":`+levels+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("io_levels %s: status = %d, want 400 (body %s)", levels, resp.StatusCode, body)
		}
		if msg := errorText(t, body); !strings.Contains(msg, "-io_levels") {
			t.Errorf("io_levels %s: error %q does not name the io_levels field", levels, msg)
		}
	}
	counters := s.reg.Snapshot().Counters
	if counters["serve.flight.misses"] != 0 || counters["rmesh.builds"] != 0 {
		t.Errorf("refused LUT requests ran %d flights and %d mesh builds", counters["serve.flight.misses"], counters["rmesh.builds"])
	}
	if resp, body := post(t, ts.URL+"/v1/lut", `{"bench":"ddr3-off","max_per_die":1,"io_levels":[1]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestOversizedBodyIs413: a body above maxBodyBytes is refused in the JSON
// error envelope, and the server goes on serving.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := `{"queries":[` + strings.Repeat(goodQuery+",", maxBodyBytes/len(goodQuery)) + goodQuery + `]}`
	resp, body := post(t, ts.URL+"/v1/batch", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %.200s)", resp.StatusCode, body)
	}
	errorText(t, body)
	if resp, body := post(t, ts.URL+"/v1/analyze", goodQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestLUTGridBudget: repeated I/O levels are deduplicated before the grid
// is sized, and a grid above maxLUTPoints — including one whose size
// would overflow an int — is refused with 413 before anything is solved.
func TestLUTGridBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	levels := strings.TrimSuffix(strings.Repeat("1.0,", 5000), ",")
	resp, body := post(t, ts.URL+"/v1/lut", `{"bench":"ddr3-off","max_per_die":1,"io_levels":[`+levels+`,0.5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deduplicated grid: status = %d, body %s", resp.StatusCode, body)
	}
	var lr LUTResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.IOLevels) != 2 || lr.Entries != 32 {
		t.Errorf("levels %v, %d entries; want [0.5 1] and 2^4 x 2 = 32", lr.IOLevels, lr.Entries)
	}
	solves := s.reg.Snapshot().Counters["rmesh.solves"]
	for _, req := range []string{
		`{"bench":"ddr3-off","max_per_die":8,"io_levels":[1.0]}`,
		`{"bench":"ddr3-off","max_per_die":9223372036854775807}`,
	} {
		resp, body := post(t, ts.URL+"/v1/lut", req)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413 (body %s)", req, resp.StatusCode, body)
		}
		errorText(t, body)
	}
	if got := s.reg.Snapshot().Counters["rmesh.solves"]; got != solves {
		t.Errorf("refused grids ran %d solves", got-solves)
	}
}

// TestTrickledBodyHoldsNoSlot: with one admission slot, a client that has
// sent its headers but not its body must not hold the slot, so another
// client is served instead of getting 429.
func TestTrickledBodyHoldsNoSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueWait: 20 * time.Millisecond})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", len(goodQuery))
	// Wait until the stalled request is inside the handler, reading.
	deadline := time.Now().Add(5 * time.Second)
	for s.ep["analyze"].requests.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := post(t, ts.URL+"/v1/analyze", goodQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d while another client trickles its body, want 200 (body %s)", resp.StatusCode, body)
	}
}

// TestPanickingSolveAnswers500: a solver whose set-up panics makes the
// request a 500 carrying the panic value; the key is released, so the same
// query fails again instead of hanging, and the server keeps serving.
func TestPanickingSolveAnswers500(t *testing.T) {
	solve.Register("test-panic", func(*sparse.CSR, solve.Options) (solve.Solver, error) {
		panic("solver set-up exploded")
	})
	_, ts := newTestServer(t, Config{method: "test-panic"})
	for attempt := 0; attempt < 2; attempt++ {
		resp, body := post(t, ts.URL+"/v1/analyze", goodQuery)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(errorText(t, body), "solver set-up exploded") {
			t.Fatalf("attempt %d: status %d, body %s; want 500 carrying the panic", attempt, resp.StatusCode, body)
		}
	}
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panics: status %d, body %s", resp.StatusCode, body)
	}
}

// panicSolver panics in Solve once two solves have entered it, so the
// two run on distinct goroutines of the build's pool and at least one
// panic happens on a worker other than the request's own goroutine.
type panicSolver struct {
	entered *atomic.Int64
	both    chan struct{}
}

func (panicSolver) Method() string { return "test-panic-solve" }

func (p panicSolver) Solve([]float64, solve.CGOptions) ([]float64, solve.CGStats, error) {
	if p.entered.Add(1) == 2 {
		close(p.both)
	}
	<-p.both
	panic("solve exploded")
}

// TestPanickingLUTSolveAnswers500: solves that panic on the worker pool of
// a LUT build make the request a 500 carrying the panic value, and the
// server keeps serving.
func TestPanickingLUTSolveAnswers500(t *testing.T) {
	ps := panicSolver{entered: new(atomic.Int64), both: make(chan struct{})}
	solve.Register("test-panic-solve", func(*sparse.CSR, solve.Options) (solve.Solver, error) { return ps, nil })
	_, ts := newTestServer(t, Config{method: "test-panic-solve", Workers: 4})
	resp, body := post(t, ts.URL+"/v1/lut", `{"bench":"ddr3-off"}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(errorText(t, body), "solve exploded") {
		t.Fatalf("status %d, body %s; want 500 carrying the panic", resp.StatusCode, body)
	}
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panic: status %d, body %s", resp.StatusCode, body)
	}
}

// FuzzRequestBody feeds arbitrary bytes through the /v1/analyze path up to
// the solve: the body read and its cap, the JSON decoding rules, and query
// resolution with its TSV-count and mesh-size checks. The outcome is a resolved query or
// an error whose status is 4xx, and nothing is solved or built.
func FuzzRequestBody(f *testing.F) {
	for _, seed := range []string{
		goodQuery,
		hostilePitch,
		`{"bench":"ddr3-off","state":"0-0-0-1","io":1,"pitch":0.001}`,
		`{"bench":"ddr3-off","state":"0-0-0-1","io":1,"pitch":100}`,
		`{"bench":"ddr3-off","state":"0-0-0-1","io":1,"dedicated":true}`,
		`{"bench":"hmc","state":"1-0-0-0","io":0.5,"tsv":64,"style":"E","rdl":"all"}`,
		`{{{`,
		hostileTSV,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(raw))
		body, status, err := readBody(w, req)
		if err != nil {
			if status < 400 || status > 499 {
				t.Fatalf("body read error %v maps to %d", err, status)
			}
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var q query.Query
		if err := decodeJSON(req, &q); err != nil {
			return // handleAnalyze answers every decode error with 400
		}
		r, err := q.Resolve()
		if err != nil {
			if st := statusFor(err); st < 400 || st > 499 {
				t.Fatalf("query %s: error %v maps to %d, want 4xx", raw, err, st)
			}
			return
		}
		if r.Spec == nil || len(r.Counts) != r.Spec.NumDRAM {
			t.Fatalf("query %s resolved to an incomplete design", raw)
		}
	})
}
