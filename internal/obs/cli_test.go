package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestCLIFlagsSetupFinish runs the shared CLI surface end to end: the
// flags build a registry, a run-trace span and a counter land in the
// -metrics-out JSON, and -stats prints the span line of the summary.
func TestCLIFlagsSetupFinish(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "m.json")
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse([]string{"-stats", "-metrics-out", out}); err != nil {
		t.Fatal(err)
	}
	reg := f.Setup(t.Errorf)
	if reg == nil {
		t.Fatal("Setup returned no registry with -stats and -metrics-out set")
	}
	sp := reg.Trace().Span("exp/table1", A("bench", "ddr3-off"))
	reg.Counter("exp.lut_cache.misses").Add(1)
	sp.End()

	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = f.Finish(reg)
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics-out is not a snapshot: %v\n%s", err, raw)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "exp/table1" || snap.Spans[0].ID != 1 || snap.Spans[0].Attrs["bench"] != "ddr3-off" {
		t.Fatalf("spans = %+v, want one exp/table1 span with id 1 and bench=ddr3-off", snap.Spans)
	}
	if snap.Counters["exp.lut_cache.misses"] != 1 {
		t.Fatalf("counters = %v, want exp.lut_cache.misses 1", snap.Counters)
	}
	summary, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^ +[0-9.]+ms  exp/table1 +[0-9.µnms]+  bench=ddr3-off$`)
	if !line.Match(summary) {
		t.Fatalf("-stats summary has no exp/table1 span line:\n%s", summary)
	}
}
