package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testPitch keeps meshes tiny so solves finish in milliseconds; results
// stay deterministic, just coarse.
const testPitch = 0.5

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.MeshPitch == 0 {
		cfg.MeshPitch = testPitch
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

const goodQuery = `{"bench":"ddr3-off","state":"0-0-0-2","io":1.0}`

func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", goodQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ar.Bench != "ddr3-off" || ar.State != "0-0-0-2" {
		t.Errorf("echo = %q/%q, want ddr3-off/0-0-0-2", ar.Bench, ar.State)
	}
	if !(ar.MaxIRmV > 0) || len(ar.PerDieMV) != 4 || !ar.Converged {
		t.Errorf("implausible result: %+v", ar)
	}

	// The zero-padded spelling is the same analysis: same canonical
	// state, byte-identical body (served from cache).
	resp2, body2 := post(t, ts.URL+"/v1/analyze", `{"bench":"ddr3-off","state":"00-0-0-02","io":1.0}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("padded spelling status = %d, body %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("equivalent spellings produced different bodies:\n%s\n%s", body, body2)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad io", `{"bench":"ddr3-off","state":"0-0-0-2","io":1.5}`, 400},
		{"bad state", `{"bench":"ddr3-off","state":"0-0-2","io":1.0}`, 400},
		{"unknown bench", `{"bench":"nope","state":"0-0-0-2","io":1.0}`, 400},
		{"unknown field", `{"bench":"ddr3-off","state":"0-0-0-2","io":1.0,"bogus":1}`, 400},
		{"not json", `{{{`, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/analyze", c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, c.status, body)
			}
			var eb errBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body %s not {error: ...}", body)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestCacheMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", goodQuery)
	if got := s.cacheMisses.Value(); got != 1 {
		t.Fatalf("after first request cache misses = %d, want 1", got)
	}
	if got := s.cacheHits.Value(); got != 0 {
		t.Fatalf("after first request cache hits = %d, want 0", got)
	}
	post(t, ts.URL+"/v1/analyze", goodQuery)
	if got := s.cacheHits.Value(); got != 1 {
		t.Errorf("after repeat request cache hits = %d, want 1", got)
	}
	if got := s.cacheMisses.Value(); got != 1 {
		t.Errorf("after repeat request cache misses = %d, want 1", got)
	}

	// /metrics exposes the counters as JSON.
	resp, body := post(t, ts.URL+"/v1/analyze", goodQuery)
	resp.Body.Close()
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if got := m.Counters["serve.cache.hits"]; got != 2 {
		t.Errorf("/metrics serve.cache.hits = %d, want 2", got)
	}
	if got := m.Counters["serve.admission.admitted"]; got != 3 {
		t.Errorf("/metrics serve.admission.admitted = %d, want 3", got)
	}
	_ = body
}

func TestByteIdenticalAcrossWorkers(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Workers: 1})
	_, ts8 := newTestServer(t, Config{Workers: 8})
	queries := []string{
		goodQuery,
		`{"bench":"ddr3-off","state":"1-0-1-2","io":0.5}`,
		`{"bench":"ddr3-on","state":"0-0-0-1","io":1.0}`,
	}
	for _, q := range queries {
		_, b1 := post(t, ts1.URL+"/v1/analyze", q)
		_, b8 := post(t, ts8.URL+"/v1/analyze", q)
		if !bytes.Equal(b1, b8) {
			t.Errorf("workers=1 vs 8 bodies differ for %s:\n%s\n%s", q, b1, b8)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"queries":[
		{"bench":"ddr3-off","state":"0-0-0-2","io":1.0},
		{"bench":"ddr3-off","state":"0-0-0-2","io":7},
		{"bench":"nope","state":"0-0-0-2","io":1.0},
		{"bench":"ddr3-off","state":"0-0-0-9","io":1.0}
	]}`
	resp, body := post(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(br.Results) != 4 || br.Failed != 3 {
		t.Fatalf("results = %d, failed = %d, want 4 and 3: %s", len(br.Results), br.Failed, body)
	}
	if !br.Results[0].OK || br.Results[0].Status != 200 {
		t.Errorf("item 0 = %+v, want OK", br.Results[0])
	}
	for i := 1; i < 4; i++ {
		it := br.Results[i]
		if it.OK || it.Status != 400 || it.Error == "" {
			t.Errorf("item %d = %+v, want status 400 with error", i, it)
		}
	}

	// The good item's body matches a standalone analyze byte for byte.
	_, single := post(t, ts.URL+"/v1/analyze", goodQuery)
	if !bytes.Equal(bytes.TrimRight(single, "\n"), []byte(br.Results[0].Result)) {
		t.Errorf("batch item body differs from standalone analyze:\n%s\n%s", single, br.Results[0].Result)
	}
}

func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	resp, _ := post(t, ts.URL+"/v1/batch", `{"queries":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/batch", `{"queries":[`+goodQuery+`,`+goodQuery+`,`+goodQuery+`]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status = %d, want 413", resp.StatusCode)
	}
}

func TestLUTEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"bench":"ddr3-off","max_per_die":1,"io_levels":[1.0],"full":true,"probe":{"state":"0-0-0-1","io":1.0}}`
	resp, body := post(t, ts.URL+"/v1/lut", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lut status = %d, body %s", resp.StatusCode, body)
	}
	var lr LUTResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if lr.Dies != 4 || lr.MaxPerDie != 1 || lr.Entries != 16 || len(lr.Points) != 16 {
		t.Errorf("grid = %d dies, %d max, %d entries, %d points; want 4/1/16/16", lr.Dies, lr.MaxPerDie, lr.Entries, len(lr.Points))
	}
	if lr.ProbeMaxIRmV == nil || !(*lr.ProbeMaxIRmV > 0) {
		t.Errorf("probe result missing or non-positive: %v", lr.ProbeMaxIRmV)
	}

	// A probe outside the covered grid is a typed coverage miss -> 422.
	miss := `{"bench":"ddr3-off","max_per_die":1,"io_levels":[1.0],"probe":{"state":"0-0-0-2","io":1.0}}`
	resp, body = post(t, ts.URL+"/v1/lut", miss)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("uncovered probe status = %d, want 422 (body %s)", resp.StatusCode, body)
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "not covered") {
		t.Errorf("422 body %s does not name the coverage miss", body)
	}
}

func Test429UnderSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueWait: 20 * time.Millisecond})
	// Occupy the only slot, as an in-flight request would.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, body := post(t, ts.URL+"/v1/analyze", goodQuery)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := s.rejectedBusy.Value(); got != 1 {
		t.Errorf("rejected_busy = %d, want 1", got)
	}
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, QueueWait: 20 * time.Millisecond})
	// One slot held: an in-flight request the drain must wait for.
	s.sem <- struct{}{}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Drain must not complete while work is in flight.
	select {
	case err := <-drained:
		t.Fatalf("drain completed with a request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New work is refused while draining.
	resp, _ := post(t, ts.URL+"/v1/analyze", goodQuery)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("analyze during drain status = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain status = %d, want 503", hresp.StatusCode)
	}

	// The in-flight request finishes; drain completes.
	<-s.sem
	if err := <-drained; err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

func TestDrainTimesOutOnStuckWork(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "still busy") {
		t.Fatalf("drain error = %v, want 'still busy'", err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", resp.StatusCode)
	}
}

// TestMixedLoad64 drives the server with 64 concurrent clients mixing
// every endpoint; run under -race this is the acceptance check for the
// serving layer's concurrency. All requests must succeed (the in-flight
// cap is set above the client count) and every analyze response for one
// query must be byte-identical.
func TestMixedLoad64(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	_, ts := newTestServer(t, Config{MaxInFlight: 128, QueueWait: 10 * time.Second, Workers: 2})
	queries := []string{
		`{"bench":"ddr3-off","state":"0-0-0-2","io":1.0}`,
		`{"bench":"ddr3-off","state":"1-0-1-2","io":0.5}`,
		`{"bench":"ddr3-off","state":"0-0-0-2","io":0.25}`,
		`{"bench":"ddr3-on","state":"0-0-0-1","io":1.0}`,
	}
	var (
		mu     sync.Mutex
		bodies = map[string][]byte{}
	)
	var wg sync.WaitGroup
	errs := make(chan error, 64*4)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			for rep := 0; rep < 3; rep++ {
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(q))
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("analyze %s: status %d body %s", q, resp.StatusCode, buf.String())
					return
				}
				mu.Lock()
				if prev, ok := bodies[q]; ok && !bytes.Equal(prev, buf.Bytes()) {
					errs <- fmt.Errorf("nondeterministic body for %s", q)
				} else {
					bodies[q] = buf.Bytes()
				}
				mu.Unlock()
			}
			// One batch and one metrics scrape per client round out the mix.
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
				strings.NewReader(`{"queries":[`+q+`]}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("batch status %d", resp.StatusCode)
			}
			if mresp, err := http.Get(ts.URL + "/metrics"); err == nil {
				mresp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResultCacheIsBounded: with room for two results, a third evicts the
// least recently used one, which then re-solves; the two kept ones hit.
func TestResultCacheIsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})
	q := func(io string) string { return `{"bench":"ddr3-off","state":"0-0-0-1","io":` + io + `}` }
	for _, io := range []string{"1.0", "0.5", "0.25", "0.5", "0.25"} {
		post(t, ts.URL+"/v1/analyze", q(io))
	}
	if h, m := s.cacheHits.Value(), s.cacheMisses.Value(); h != 2 || m != 3 {
		t.Fatalf("hits/misses = %d/%d, want 2/3 (the two newest results kept)", h, m)
	}
	post(t, ts.URL+"/v1/analyze", q("1.0"))
	if m := s.cacheMisses.Value(); m != 4 {
		t.Errorf("misses = %d after re-asking the evicted query, want 4", m)
	}
	if got := s.flightMisses.Value(); got != 4 {
		t.Errorf("solves = %d, want 4 (one per miss)", got)
	}
}
