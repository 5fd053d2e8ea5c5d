package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"pdn3d/internal/obs"
)

// TestAnalyzerEvictionRebuilds: with a one-entry analyzer cache, a design
// whose analyzer was evicted is rebuilt in full — a "mesh" span with
// outcome=full — and answers exactly as a server that never evicted it.
func TestAnalyzerEvictionRebuilds(t *testing.T) {
	s, ts := newTestServer(t, Config{DesignCacheSize: 1})
	_, fresh := newTestServer(t, Config{})

	// Design A, then design B (different TSV count), which evicts A.
	post(t, ts.URL+"/v1/analyze", goodQuery)
	post(t, ts.URL+"/v1/analyze", `{"bench":"ddr3-off","state":"0-0-0-2","io":1.0,"tsv":64}`)
	// Design A again, new state so the result cache misses.
	third := `{"bench":"ddr3-off","state":"1-0-0-2","io":1.0}`
	resp, body := post(t, ts.URL+"/v1/analyze", third)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if _, want := post(t, fresh.URL+"/v1/analyze", third); !bytes.Equal(body, want) {
		t.Errorf("rebuilt analyzer answered\n%s\nwant\n%s", body, want)
	}
	if got := s.reg.Snapshot().Counters["rmesh.builds"]; got != 3 {
		t.Errorf("rmesh.builds = %d, want 3 (A, B, then A again)", got)
	}

	id := resp.Header.Get("X-Trace-Id")
	_, dbody := getBody(t, ts.URL+"/debug/requests?id="+id)
	var trace obs.TraceSnapshot
	if err := json.Unmarshal(dbody, &trace); err != nil {
		t.Fatal(err)
	}
	meshes := 0
	for _, sp := range trace.Spans {
		if sp.Name == "mesh" {
			meshes++
			if sp.Attrs["outcome"] != "full" {
				t.Errorf("mesh span outcome = %q, want full", sp.Attrs["outcome"])
			}
		}
	}
	if meshes != 1 {
		t.Errorf("third request recorded %d mesh spans, want 1", meshes)
	}
}

// TestWarmStartOptIn: with Config.WarmStart on, solves for one design seed
// each other. The answers are no longer byte-guaranteed — the documented
// trade — but must stay within solver tolerance of a cold server's.
func TestWarmStartOptIn(t *testing.T) {
	warmS, warmTS := newTestServer(t, Config{WarmStart: true})
	_, coldTS := newTestServer(t, Config{})

	queries := []string{
		goodQuery,
		`{"bench":"ddr3-off","state":"1-0-0-2","io":1.0}`,
		`{"bench":"ddr3-off","state":"2-0-0-2","io":1.0}`,
	}
	for _, q := range queries {
		_, warmBody := post(t, warmTS.URL+"/v1/analyze", q)
		_, coldBody := post(t, coldTS.URL+"/v1/analyze", q)
		var warm, cold AnalyzeResponse
		if err := json.Unmarshal(warmBody, &warm); err != nil {
			t.Fatalf("warm body: %v\n%s", err, warmBody)
		}
		if err := json.Unmarshal(coldBody, &cold); err != nil {
			t.Fatal(err)
		}
		if !warm.Converged {
			t.Fatalf("warm solve did not converge: %s", warmBody)
		}
		// The analyzer solves at Tol=1e-8 relative residual, which admits
		// a few µV of trajectory-dependent drift on a ~30 mV answer; 10 µV
		// bounds that while still catching a genuinely wrong solve.
		if math.Abs(warm.MaxIRmV-cold.MaxIRmV) > 1e-2 {
			t.Errorf("state %s: warm MaxIR %.6f mV vs cold %.6f mV beyond tolerance",
				warm.State, warm.MaxIRmV, cold.MaxIRmV)
		}
	}
	if warmStarts := warmS.reg.Snapshot().Counters["solve.cg-ic0.warm_starts"]; warmStarts < 2 {
		t.Errorf("warm_starts = %d, want >= 2 (second and third solves seeded)", warmStarts)
	}
}

// TestWarmStartDefaultOff: the byte-determinism contract holds by default,
// so no solve may be seeded unless the operator opts in.
func TestWarmStartDefaultOff(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", goodQuery)
	post(t, ts.URL+"/v1/analyze", `{"bench":"ddr3-off","state":"1-0-0-2","io":1.0}`)
	if v := s.reg.Snapshot().Counters["solve.cg-ic0.warm_starts"]; v != 0 {
		t.Errorf("solve.cg-ic0.warm_starts = %d with WarmStart off, want 0", v)
	}
}

// TestDebugLimitContract pins the ?limit= contract shared by both debug
// endpoints: a positive integer truncates each retention list (never the
// added total), a non-integer is a 400, and a non-positive integer a 422
// — identically on /debug/requests and /debug/solves, both in the /v1/*
// JSON error envelope.
func TestDebugLimitContract(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufSize: 8, SolveBufSize: 8})
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"bench":"ddr3-off","state":"0-0-0-2","io":0.%d}`, i+1))
	}
	// lists returns the two retention-list lengths and the added total of
	// either debug body (the field names coincide except slowest/worst).
	lists := func(body []byte) (a, b int, added int64) {
		var parsed struct {
			Added   int64             `json:"added"`
			Recent  []json.RawMessage `json:"recent"`
			Slowest []json.RawMessage `json:"slowest"`
			Worst   []json.RawMessage `json:"worst"`
		}
		if err := json.Unmarshal(body, &parsed); err != nil {
			t.Fatal(err)
		}
		return len(parsed.Recent), len(parsed.Slowest) + len(parsed.Worst), parsed.Added
	}
	for _, endpoint := range []string{"/debug/requests", "/debug/solves"} {
		for _, tc := range []struct{ limit, want int }{{1, 1}, {2, 2}, {100, 3}} {
			resp, body := getBody(t, fmt.Sprintf("%s%s?limit=%d", ts.URL, endpoint, tc.limit))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s limit=%d status = %d: %s", endpoint, tc.limit, resp.StatusCode, body)
			}
			recent, second, added := lists(body)
			if recent != tc.want || second != tc.want {
				t.Errorf("%s limit=%d: recent=%d second=%d, want %d each", endpoint, tc.limit, recent, second, tc.want)
			}
			if added != 3 {
				t.Errorf("%s limit=%d: added = %d, want 3 (limit must not hide the total)", endpoint, tc.limit, added)
			}
		}
		for _, tc := range []struct {
			raw  string
			want int
		}{
			{"abc", http.StatusBadRequest},
			{"1.5", http.StatusBadRequest},
			{"0", http.StatusUnprocessableEntity},
			{"-1", http.StatusUnprocessableEntity},
		} {
			resp, body := getBody(t, ts.URL+endpoint+"?limit="+tc.raw)
			if resp.StatusCode != tc.want {
				t.Errorf("%s limit=%q status = %d, want %d", endpoint, tc.raw, resp.StatusCode, tc.want)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s limit=%q error not in the JSON envelope: %s", endpoint, tc.raw, body)
			}
		}
	}
}
