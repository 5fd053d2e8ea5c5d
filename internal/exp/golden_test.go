package exp

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pdn3d/internal/report"
)

// update rewrites the golden tables instead of comparing against them:
//
//	go test ./internal/exp -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite the golden tables under testdata/golden")

// Golden comparison tolerance (see EXPERIMENTS.md): numeric cells match
// within 0.5 % relative plus a small absolute floor that absorbs
// rounding of near-zero percentages; everything else must be identical.
const (
	goldenRelTol = 0.005
	goldenAbsTol = 0.02
)

type goldenCase struct {
	id   string
	slow bool // skipped under -short
	run  func(r *Runner) (*report.Table, error)
}

// goldenTableCases lists the paper tables locked down by golden files.
// All run on the shared coarse test runner (pitch 0.5 mm, 3000 requests),
// so the numbers differ from the paper's full-fidelity ones; the goldens
// lock the reproduction against regressions, not against the paper.
func goldenTableCases() []goldenCase {
	return []goldenCase{
		{id: "table2", run: func(r *Runner) (*report.Table, error) { return r.Table2() }},
		{id: "table3", run: func(r *Runner) (*report.Table, error) { return r.Table3() }},
		{id: "table4", run: func(r *Runner) (*report.Table, error) { return r.Table4() }},
		{id: "table5", run: func(r *Runner) (*report.Table, error) { return r.Table5() }},
		{id: "table6", slow: true, run: func(r *Runner) (*report.Table, error) {
			t, _, err := r.Table6()
			return t, err
		}},
		{id: "table8", run: func(r *Runner) (*report.Table, error) { return r.Table8() }},
		{id: "table9", slow: true, run: func(r *Runner) (*report.Table, error) { return r.Table9("ddr3-off") }},
		{id: "regression", slow: true, run: func(r *Runner) (*report.Table, error) { return r.RegressionStudy("ddr3-off") }},
	}
}

func TestGoldenTables(t *testing.T) {
	for _, tc := range goldenTableCases() {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow experiment")
			}
			tab, err := tc.run(runner())
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			path := filepath.Join("testdata", "golden", tc.id+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			diffTables(t, tc.id, string(want), got)
		})
	}
}

// diffTables compares two rendered tables token by token, reporting
// every mismatched cell with its line so a failure reads as a diff.
func diffTables(t *testing.T, id, want, got string) {
	t.Helper()
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(wl) != len(gl) {
		t.Fatalf("%s: table shape changed: golden has %d lines, got %d\n--- golden ---\n%s\n--- got ---\n%s",
			id, len(wl), len(gl), want, got)
	}
	for i := range wl {
		wf, gf := strings.Fields(wl[i]), strings.Fields(gl[i])
		if len(wf) != len(gf) {
			t.Errorf("%s line %d: cell layout changed\n  golden: %s\n  got:    %s", id, i+1, wl[i], gl[i])
			continue
		}
		for j := range wf {
			if tokensMatch(wf[j], gf[j]) {
				continue
			}
			t.Errorf("%s line %d, cell token %d: golden %q vs got %q (numeric tolerance %.1f%% rel + %.2g abs)\n  golden: %s\n  got:    %s",
				id, i+1, j+1, wf[j], gf[j], goldenRelTol*100, goldenAbsTol, wl[i], gl[i])
		}
	}
}

// tokensMatch accepts identical tokens, or two numeric tokens within the
// golden tolerance after stripping table decorations.
func tokensMatch(w, g string) bool {
	if w == g {
		return true
	}
	wv, wok := goldenNumber(w)
	gv, gok := goldenNumber(g)
	if !wok || !gok {
		return false
	}
	diff := math.Abs(wv - gv)
	scale := math.Max(math.Abs(wv), math.Abs(gv))
	return diff <= goldenRelTol*scale+goldenAbsTol
}

// goldenNumber parses a table cell token as a number, tolerating the
// decorations the renderers attach: parentheses, %, unit suffixes.
func goldenNumber(tok string) (float64, bool) {
	tok = strings.TrimPrefix(tok, "(")
	tok = strings.TrimSuffix(tok, ")")
	tok = strings.TrimSuffix(tok, "%")
	for _, unit := range []string{"mV", "mA", "us", "x"} {
		tok = strings.TrimSuffix(tok, unit)
	}
	v, err := strconv.ParseFloat(tok, 64)
	return v, err == nil
}
