package main

import (
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// goldenFS holds the expected full-fidelity answers, one text file per
// checked output. Regenerate them with -write-golden.
//
//go:embed golden
var goldenFS embed.FS

// The golden-table rule of the repository's own golden tests: a numeric
// token matches within 0.5 % relative plus a small absolute floor that
// absorbs rounding of near-zero values; any other token must be identical.
const (
	goldenRelTol = 0.005
	goldenAbsTol = 0.02
)

// checker compares answers with the golden files. With dir set it writes
// the answers there instead, which is how the goldens are made. A nil
// checker accepts everything (smoke configurations run off-golden
// fidelities).
type checker struct {
	dir string
}

func (k *checker) golden(name string) (string, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".txt")
	if err != nil {
		return "", fmt.Errorf("golden %s missing (regenerate with -write-golden): %w", name, err)
	}
	return string(b), nil
}

// text checks a whole rendered answer against golden file name.
func (k *checker) text(name, got string) error {
	if k == nil {
		return nil
	}
	if k.dir != "" {
		path := filepath.Join(k.dir, filepath.FromSlash(name)+".txt")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(got), 0o644)
	}
	want, err := k.golden(name)
	if err != nil {
		return err
	}
	return compareText(name, want, got)
}

// line checks one rendered line against the golden line of file name
// that starts with the same key (its first n tokens).
func (k *checker) line(name string, n int, got string) error {
	if k == nil {
		return nil
	}
	want, err := k.golden(name)
	if err != nil {
		return err
	}
	key := strings.Join(strings.Fields(got)[:n], " ")
	for _, l := range strings.Split(want, "\n") {
		if f := strings.Fields(l); len(f) >= n && strings.Join(f[:n], " ") == key {
			return compareText(name+"["+key+"]", l, got)
		}
	}
	return fmt.Errorf("%s: no golden line for %q", name, key)
}

// compareText compares two renderings token by token under the golden
// rule and names the first mismatching token.
func compareText(name, want, got string) error {
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(wl) != len(gl) {
		return fmt.Errorf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
	for i := range wl {
		wf, gf := strings.Fields(wl[i]), strings.Fields(gl[i])
		if len(wf) != len(gf) {
			return fmt.Errorf("%s line %d: %q, golden %q", name, i+1, gl[i], wl[i])
		}
		for j := range wf {
			if !tokensMatch(wf[j], gf[j]) {
				return fmt.Errorf("%s line %d token %d: %q, golden %q", name, i+1, j+1, gf[j], wf[j])
			}
		}
	}
	return nil
}

func tokensMatch(w, g string) bool {
	if w == g {
		return true
	}
	wv, wok := goldenNumber(w)
	gv, gok := goldenNumber(g)
	if !wok || !gok {
		return false
	}
	return math.Abs(wv-gv) <= goldenRelTol*math.Max(math.Abs(wv), math.Abs(gv))+goldenAbsTol
}

// goldenNumber parses a token as a number, tolerating the decorations the
// report renderers attach: parentheses, %, unit suffixes.
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
