package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pdn3d/internal/obs"
)

// TestMetricsDeterministicAcrossWorkers locks the obs determinism
// contract end to end: the same workload at -workers=1 and -workers=8
// must produce byte-identical metric snapshots once wall-clock-derived
// data (timers, spans, info gauges, histogram sums) is stripped.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	snap := func(workers int) []byte {
		reg := obs.NewRegistry()
		r := NewRunner(Config{MeshPitch: 0.5, Requests: 3000, Workers: workers, Obs: reg})
		if _, err := r.Table2(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Figure5(); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(reg.Snapshot().Deterministic(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := snap(1)
	pooled := snap(8)
	if !bytes.Equal(serial, pooled) {
		t.Errorf("deterministic snapshots differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, pooled)
	}
	// The snapshot must actually cover the instrumented layers, or the
	// comparison above proves nothing.
	for _, name := range []string{"exp.sweep.tasks_completed", "rmesh.builds", "exp.result_cache.misses"} {
		if !bytes.Contains(serial, []byte(name)) {
			t.Errorf("snapshot is missing %q:\n%s", name, serial)
		}
	}
}

// TestTSVFailureStudySingularMesh forces a singular nodal system (every
// PG TSV failed severs the stack from its supply) and checks that the
// failed cell renders as ERR, the healthy cells survive, and the error
// still reaches the caller so the CLI exits non-zero.
func TestTSVFailureStudySingularMesh(t *testing.T) {
	tab, err := runner().TSVFailureStudyAt([]int{33}, []int{0, 100})
	if err == nil {
		t.Fatal("100% TSV failure should surface a solve error")
	}
	if !strings.Contains(err.Error(), "1 of 2 cells failed") {
		t.Errorf("aggregated error should count failed cells, got: %v", err)
	}
	if tab == nil {
		t.Fatal("the partial table should be returned alongside the error")
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (healthy + failed)", len(tab.Rows))
	}
	if tab.Rows[0][3] == "ERR" {
		t.Errorf("healthy cell rendered as ERR: %v", tab.Rows[0])
	}
	if tab.Rows[1][3] != "ERR" {
		t.Errorf("singular cell should render as ERR, got: %v", tab.Rows[1])
	}
}
