// Package sev is a runner fixture carrying one walltime and one floateq
// violation at known positions, used by the lint package's own tests to
// exercise JSON output and by CI to pin pdnlint's exit status on a
// finding.
package sev

import "time"

// Drift reads the wall clock and compares floats exactly.
func Drift(a, b float64) bool {
	t := time.Now()
	_ = t
	return a == b
}
