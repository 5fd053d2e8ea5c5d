package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newBenchServer(b *testing.B, cfg Config) *httptest.Server {
	b.Helper()
	if cfg.MeshPitch == 0 {
		cfg.MeshPitch = testPitch
	}
	ts := httptest.NewServer(New(cfg))
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// BenchmarkAnalyzeCacheHit is the fully-cached serving cost: result cache
// hit, no solver work. The floor of the serving path.
func BenchmarkAnalyzeCacheHit(b *testing.B) {
	ts := newBenchServer(b, Config{})
	benchPost(b, ts.URL+"/v1/analyze", goodQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/analyze", goodQuery)
	}
}

// BenchmarkAnalyzeColdState exercises the solve path with a warm analyzer:
// every request is a new (state, io) on a cached design, so each pays RHS
// assembly plus one CG solve but no mesh work.
func BenchmarkAnalyzeColdState(b *testing.B) {
	ts := newBenchServer(b, Config{CacheSize: 1})
	benchPost(b, ts.URL+"/v1/analyze", goodQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := 0.5 + 0.4*float64(i%1000)/1000
		benchPost(b, ts.URL+"/v1/analyze",
			fmt.Sprintf(`{"bench":"ddr3-off","state":"0-0-0-2","io":%.4f}`, io))
	}
}

// BenchmarkAnalyzeWarmStart is BenchmarkAnalyzeColdState with the
// warm-start opt-in: consecutive solves on the design seed each other.
func BenchmarkAnalyzeWarmStart(b *testing.B) {
	ts := newBenchServer(b, Config{CacheSize: 1, WarmStart: true})
	benchPost(b, ts.URL+"/v1/analyze", goodQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := 0.5 + 0.4*float64(i%1000)/1000
		benchPost(b, ts.URL+"/v1/analyze",
			fmt.Sprintf(`{"bench":"ddr3-off","state":"0-0-0-2","io":%.4f}`, io))
	}
}
