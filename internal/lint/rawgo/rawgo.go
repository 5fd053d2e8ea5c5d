// Package rawgo forbids bare `go` statements outside the sanctioned
// concurrency layer. All production concurrency flows through
// internal/par's bounded worker pool (Sweep), which is
// what makes worker-count-independent determinism and prompt
// cancellation auditable in one place. Test files are exempt: tests
// legitimately spawn goroutines to provoke races and exercise the pool
// itself.
package rawgo

import (
	"go/ast"
	"strings"

	"pdn3d/internal/lint/analysis"
)

// Analyzer is the rawgo check.
var Analyzer = &analysis.Analyzer{
	Name: "rawgo",
	Doc: "flags go statements outside internal/par and _test.go files, " +
		"enforcing bounded-pool-only concurrency",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Path, "internal/par") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !pass.IsTestFile(gs.Pos()) {
				pass.Reportf(gs.Go,
					"bare go statement; route concurrency through internal/par (Sweep) so pools stay bounded and deterministic")
			}
			return true
		})
	}
	return nil
}
