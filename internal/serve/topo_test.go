package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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
