// Command pdnlint runs the project's static-analysis suite: the
// analyzers that machine-check the determinism, numerical-safety,
// concurrency, and immutability invariants the solver stack relies on
// (see DESIGN.md, "Static analysis layer").
//
// Usage:
//
//	go run ./cmd/pdnlint ./...
//
// Findings print one per line as file:line:col: message (analyzer), and
// the exit status is 1 if any finding remains, so CI can gate on it.
// With -json the findings are emitted as a JSON array instead (fields
// analyzer, file, line, col, message). Both forms give paths relative to
// the working directory.
//
// A finding that is a deliberate, justified exception is waived in
// place — the one way to waive a finding:
//
//	//pdnlint:ignore <analyzer> <reason>
//
// Stale or malformed waivers are themselves findings (unusedsuppress).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pdn3d/internal/lint"
)

var jsonFlag = flag.Bool("json", false, "emit findings as a JSON array instead of plain lines")

func main() {
	flag.Usage = usage
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := run(os.Stdout, ".", *jsonFlag, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdnlint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// run lints the packages matching patterns in the module at dir and
// writes the findings to w, paths relative to dir, returning how many
// there were.
func run(w io.Writer, dir string, asJSON bool, patterns []string) (int, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	prog, err := lint.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}
	findings, err := lint.Run(prog, lint.Suite())
	if err != nil {
		return 0, err
	}
	if asJSON {
		err = lint.WriteJSON(w, findings, root)
	} else {
		err = lint.WriteText(w, findings, root)
	}
	return len(findings), err
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: pdnlint [flags] [packages]\n\nAnalyzers:\n")
	for _, a := range lint.Suite() {
		fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a finding with //pdnlint:ignore <analyzer> <reason>.\n\nFlags:\n")
	flag.PrintDefaults()
}
