package lint_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pdn3d/internal/lint"
	"pdn3d/internal/lint/load"
)

func TestSuite(t *testing.T) {
	suite := lint.Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d analyzers, want 10", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil && a.Name != "unusedsuppress" {
			t.Errorf("analyzer %q has no Run and is not runner-implemented", a.Name)
		}
	}
	for _, name := range []string{"ctxflow", "lockbalance", "frozenmut", "obscontract"} {
		if !seen[name] {
			t.Errorf("suite is missing %s", name)
		}
	}
}

// TestRepoIsClean is the in-tree mirror of the CI lint gate: the whole
// module must pass its own analyzer suite. Any new violation fails
// `go test ./...` even where CI is not running.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-tree lint in -short mode")
	}
	prog, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings, err := lint.Run(prog, lint.Suite())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestFindingString pins the file:line:col output format CI greps.
func TestFindingString(t *testing.T) {
	prog, err := lint.Load("../..", "./internal/lint/suppress")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings, err := lint.Run(prog, lint.Suite())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		s := f.String()
		if !strings.Contains(s, ".go:") || !strings.HasSuffix(s, "("+f.Analyzer+")") {
			t.Errorf("malformed finding rendering: %q", s)
		}
	}
}

// TestSortFindings pins the deterministic report order: file, then
// line, then column, then analyzer, then message. Two analyzers
// reporting the same position must tie-break alphabetically, never by
// execution order.
func TestSortFindings(t *testing.T) {
	mk := func(analyzer, file string, line, col int, msg string) lint.Finding {
		return lint.Finding{Analyzer: analyzer, Pos: token.Position{Filename: file, Line: line, Column: col}, Message: msg}
	}
	findings := []lint.Finding{
		mk("walltime", "b.go", 1, 1, "m"),
		mk("walltime", "a.go", 9, 2, "m"),
		mk("floateq", "a.go", 9, 2, "m"),
		mk("floateq", "a.go", 9, 1, "m"),
		mk("floateq", "a.go", 2, 7, "m"),
		mk("floateq", "a.go", 9, 2, "a message sorting first"),
	}
	lint.SortFindings(findings)
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	want := []string{
		"a.go:2:7: m (floateq)",
		"a.go:9:1: m (floateq)",
		"a.go:9:2: a message sorting first (floateq)",
		"a.go:9:2: m (floateq)",
		"a.go:9:2: m (walltime)",
		"b.go:1:1: m (walltime)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sorted order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// loadSev loads the fixture package with one walltime and one floateq
// violation at known positions.
func loadSev(t *testing.T) *load.Program {
	t.Helper()
	prog, err := load.LoadDir(filepath.Join("testdata", "src"), "sev")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return prog
}

func TestWriteJSON(t *testing.T) {
	prog := loadSev(t)
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(prog, lint.Suite())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, findings, root); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d findings, want 2", len(decoded))
	}
	for i, want := range []string{"walltime", "floateq"} {
		obj := decoded[i]
		var keys []string
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "analyzer,col,file,line,message" {
			t.Errorf("finding %d has fields %s, want analyzer,col,file,line,message", i, got)
		}
		if obj["analyzer"] != want {
			t.Errorf("finding %d analyzer = %v, want %s", i, obj["analyzer"], want)
		}
		if obj["file"] != "sev/sev.go" {
			t.Errorf("finding %d file = %v, want the root-relative slash form sev/sev.go", i, obj["file"])
		}
		if obj["line"] == 0.0 || obj["col"] == 0.0 || obj["message"] == "" {
			t.Errorf("finding %d is missing its position or message: %v", i, obj)
		}
	}

	buf.Reset()
	if err := lint.WriteJSON(&buf, nil, root); err != nil {
		t.Fatalf("WriteJSON empty: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty run rendered %q, want []", buf.String())
	}
}
