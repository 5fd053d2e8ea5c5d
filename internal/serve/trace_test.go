package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pdn3d/internal/obs"
)

const batchQueries = `{"queries":[
	{"bench":"ddr3-off","state":"0-0-0-2","io":1.0},
	{"bench":"ddr3-off","state":"1-0-1-2","io":0.5},
	{"bench":"ddr3-on","state":"0-0-0-1","io":1.0}
]}`

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func TestTraceIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/analyze", goodQuery)
	fresh := resp.Header.Get("X-Trace-Id")
	if !obs.ValidTraceID(fresh) || len(fresh) != 16 {
		t.Fatalf("issued X-Trace-Id %q is not a fresh 16-hex ID", fresh)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(goodQuery))
	req.Header.Set("X-Trace-Id", "client-supplied_01")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); got != "client-supplied_01" {
		t.Fatalf("valid inbound trace ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(goodQuery))
	req.Header.Set("X-Trace-Id", "bad id with spaces")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	got := resp3.Header.Get("X-Trace-Id")
	if got == "bad id with spaces" || !obs.ValidTraceID(got) {
		t.Fatalf("invalid inbound trace ID not replaced: got %q", got)
	}
}

// spanShape is a span's deterministic projection: its name, its parent's
// name, and its attributes. Span IDs and timings are scheduling- and
// clock-dependent and excluded on purpose.
func spanShape(ts obs.TraceSnapshot) []string {
	names := map[int]string{}
	for _, sp := range ts.Spans {
		names[sp.ID] = sp.Name
	}
	var out []string
	for _, sp := range ts.Spans {
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var attrs strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&attrs, " %s=%s", k, sp.Attrs[k])
		}
		out = append(out, names[sp.Parent]+"/"+sp.Name+attrs.String())
	}
	sort.Strings(out)
	return out
}

// batchTrace posts one batch and fetches its full trace back through
// /debug/requests?id= using the X-Trace-Id the response carried.
func batchTrace(t *testing.T, workers int) obs.TraceSnapshot {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: workers})
	resp, body := post(t, ts.URL+"/v1/batch", batchQueries)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("batch response carried no X-Trace-Id")
	}
	dresp, dbody := getBody(t, ts.URL+"/debug/requests?id="+id)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests?id=%s status = %d, body %s", id, dresp.StatusCode, dbody)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(dbody, &snap); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, dbody)
	}
	if snap.ID != id {
		t.Fatalf("trace ID = %q, want %q", snap.ID, id)
	}
	return snap
}

func TestBatchTracePropagation(t *testing.T) {
	snap := batchTrace(t, 4)
	count := map[string]int{}
	names := map[int]string{}
	for _, sp := range snap.Spans {
		names[sp.ID] = sp.Name
	}
	for _, sp := range snap.Spans {
		count[sp.Name]++
		switch sp.Name {
		case "request":
			if sp.Parent != 0 {
				t.Errorf("request span has parent %d", sp.Parent)
			}
			if sp.Attrs["endpoint"] != "/v1/batch" {
				t.Errorf("request attrs = %v", sp.Attrs)
			}
		case "queue", "item":
			if names[sp.Parent] != "request" {
				t.Errorf("%s span parent is %q, want request", sp.Name, names[sp.Parent])
			}
		case "cache", "flight":
			if names[sp.Parent] != "item" {
				t.Errorf("%s span parent is %q, want item", sp.Name, names[sp.Parent])
			}
		case "mesh", "stamp", "solve", "serialize":
			if names[sp.Parent] != "flight" {
				t.Errorf("%s span parent is %q, want flight", sp.Name, names[sp.Parent])
			}
		default:
			t.Errorf("unexpected span %q", sp.Name)
		}
	}
	// The batch holds three queries over two distinct designs, so the
	// analyzer singleflight runs two mesh builds; both are cold, hence
	// outcome=full.
	want := map[string]int{
		"request": 1, "queue": 1, "item": 3, "cache": 3,
		"flight": 3, "mesh": 2, "stamp": 3, "solve": 3, "serialize": 3,
	}
	for name, n := range want {
		if count[name] != n {
			t.Errorf("span %q count = %d, want %d (all: %v)", name, count[name], n, count)
		}
	}
	for _, sp := range snap.Spans {
		if sp.Name == "solve" && sp.Attrs["converged"] != "true" {
			t.Errorf("solve span attrs = %v, want converged=true", sp.Attrs)
		}
		if sp.Name == "cache" && sp.Attrs["outcome"] != "miss" {
			t.Errorf("cache span attrs = %v, want outcome=miss (distinct cold queries)", sp.Attrs)
		}
		if sp.Name == "flight" && sp.Attrs["outcome"] != "solve" {
			t.Errorf("flight span attrs = %v, want outcome=solve", sp.Attrs)
		}
		if sp.Name == "mesh" && sp.Attrs["outcome"] != "full" {
			t.Errorf("mesh span attrs = %v, want outcome=full (cold topology cache)", sp.Attrs)
		}
	}
}

func TestBatchTraceDeterministicAcrossWorkers(t *testing.T) {
	shape1 := spanShape(batchTrace(t, 1))
	shape8 := spanShape(batchTrace(t, 8))
	b1, _ := json.Marshal(shape1)
	b8, _ := json.Marshal(shape8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("deterministic span shape differs workers=1 vs 8:\n%s\n%s", b1, b8)
	}
}

// debugBody decodes either /debug/* list body.
type debugBody[T any] struct {
	Added                  int64
	Recent, Slowest, Worst []T
}

// TestDebugListShape pins the bytes of the /debug/* list bodies: the
// field order added, recent, then slowest or worst, with empty lists
// rendered as [].
func TestDebugListShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, want string }{
		{"/debug/requests", `{"added":0,"recent":[],"slowest":[]}` + "\n"},
		{"/debug/solves", `{"added":0,"recent":[],"worst":[]}` + "\n"},
	} {
		if _, body := getBody(t, ts.URL+c.path); string(body) != c.want {
			t.Errorf("%s = %q, want %q", c.path, body, c.want)
		}
	}
	_, ts = newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", goodQuery)
	for _, c := range []struct{ path, want string }{
		{"/debug/requests", `^\{"added":1,"recent":\[\{"trace_id":.*\}\],"slowest":\[\{"trace_id":.*\}\]\}\n$`},
		{"/debug/solves", `^\{"added":1,"recent":\[\{"solve_id":.*\}\],"worst":\[\{"solve_id":.*\}\]\}\n$`},
	} {
		if _, body := getBody(t, ts.URL+c.path); !regexp.MustCompile(c.want).Match(body) {
			t.Errorf("%s = %s, want the shape %s", c.path, body, c.want)
		}
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufSize: 2})
	var lastID string
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf(`{"bench":"ddr3-off","state":"0-0-0-2","io":%d.0}`, i+1)
		resp, _ := post(t, ts.URL+"/v1/analyze", q)
		lastID = resp.Header.Get("X-Trace-Id")
	}
	_, dbody := getBody(t, ts.URL+"/debug/requests")
	var b debugBody[obs.TraceSnapshot]
	if err := json.Unmarshal(dbody, &b); err != nil {
		t.Fatal(err)
	}
	if b.Added != 5 {
		t.Errorf("added = %d, want 5", b.Added)
	}
	if len(b.Recent) != 2 || len(b.Slowest) != 2 {
		t.Errorf("buffers not bounded at 2: recent=%d slowest=%d", len(b.Recent), len(b.Slowest))
	}
	if b.Recent[0].ID != lastID {
		t.Errorf("recent[0] = %q, want newest %q", b.Recent[0].ID, lastID)
	}

	resp, _ := getBody(t, ts.URL+"/debug/requests?id=nosuchtrace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	}
	presp, _ := post(t, ts.URL+"/debug/requests", "{}")
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/requests status = %d, want 405", presp.StatusCode)
	}
}

func TestMetricsPromNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", goodQuery)

	resp, body := getBody(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics Content-Type = %q, want JSON (back-compat)", ct)
	}
	if !json.Valid(body) {
		t.Fatalf("default /metrics not JSON: %s", body)
	}

	resp, body = getBody(t, ts.URL+"/metrics?format=prometheus")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom /metrics Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_analyze_requests counter",
		"serve_analyze_requests 1",
		"# TYPE serve_analyze_latency_ms histogram",
		`serve_analyze_latency_ms_bucket{le="+Inf"} 1`,
		"serve_analyze_status_200 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, text)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	aresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if ct := aresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept: text/plain Content-Type = %q", ct)
	}
}

func TestEndpointMetricsAnd429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueWait: 20 * time.Millisecond})
	post(t, ts.URL+"/v1/analyze", goodQuery)

	s.sem <- struct{}{} // saturate the only admission slot
	resp, _ := post(t, ts.URL+"/v1/analyze", goodQuery)
	<-s.sem
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}

	snap := s.reg.Snapshot()
	for name, want := range map[string]int64{
		"serve.analyze.requests":      2,
		"serve.analyze.status.200":    1,
		"serve.analyze.status.429":    1,
		"serve.analyze.rejected_busy": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{
		"serve.analyze.latency_ms (info)",
		"serve.analyze.queue_wait_ms (info)",
		"serve.analyze.handler_ms (info)",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 2 {
			t.Errorf("histogram %s count = %d (ok=%v), want 2", name, h.Count, ok)
		}
	}
	// The rejected request waited the full 20ms QueueWait, so at most one
	// observation (the admitted request) can sit at or below the 5ms bound.
	qw := snap.Histograms["serve.analyze.queue_wait_ms (info)"]
	if low := qw.Buckets[0] + qw.Buckets[1] + qw.Buckets[2] + qw.Buckets[3]; low > 1 {
		t.Errorf("queue-wait buckets = %v: the 429 should have waited past 5ms", qw.Buckets)
	}
	if g := snap.Gauges["serve.analyze.inflight (info)"]; g != 0 {
		t.Errorf("inflight gauge = %g after requests finished, want 0", g)
	}
}

func TestRequestLogRecords(t *testing.T) {
	var sb strings.Builder
	logger, err := obs.NewLogger(&syncWriter{sb: &sb}, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Log: logger})
	resp, _ := post(t, ts.URL+"/v1/analyze", goodQuery)
	post(t, ts.URL+"/v1/analyze", goodQuery) // cache hit

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), sb.String())
	}
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, lines[0])
	}
	if rec["event"] != "request" || rec["endpoint"] != "analyze" {
		t.Fatalf("record = %v", rec)
	}
	if rec["trace_id"] != resp.Header.Get("X-Trace-Id") {
		t.Fatalf("log trace_id %v != header %q", rec["trace_id"], resp.Header.Get("X-Trace-Id"))
	}
	if rec["status"] != float64(200) {
		t.Fatalf("log status = %v", rec["status"])
	}
	for _, key := range []string{"dur_ms", "queue_ms", "handler_ms", "solve_ms", "iterations"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("first (cache-miss) record missing %q: %v", key, rec)
		}
	}
	var hit map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &hit); err != nil {
		t.Fatal(err)
	}
	if hit["cache_hits"] != float64(1) {
		t.Errorf("cache-hit record cache_hits = %v, want 1: %v", hit["cache_hits"], hit)
	}
}

// syncWriter serializes writes; the logger already locks, but tests read
// the buffer from the main goroutine while handlers may still flush.
type syncWriter struct {
	mu sync.Mutex
	sb *strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}
