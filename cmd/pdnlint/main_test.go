package main

import (
	"bytes"
	"testing"
)

// TestPlainOutputIsRelative pins the plain output CI compares exactly:
// one file:line:col: message (analyzer) line per finding, its path
// relative to the linted module's root as in -json.
func TestPlainOutputIsRelative(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(&buf, "../..", false, []string{"./internal/lint/testdata/src/sev"})
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/lint/testdata/src/sev/sev.go:11:7: time.Now() in library code; wall-clock time must not reach result paths (cmd/ and tests are exempt) (walltime)\n" +
		"internal/lint/testdata/src/sev/sev.go:13:11: floating-point == comparison; use units.ApproxEqual (rounding makes exact equality unreliable) (floateq)\n"
	if n != 2 || buf.String() != want {
		t.Errorf("%d findings printed as\n%s\nwant 2 printed as\n%s", n, buf.String(), want)
	}
}
