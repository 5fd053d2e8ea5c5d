// Package lint is the pdnlint runner: it drives the project's analyzer
// suite over type-checked packages in dependency order (so cross
// -package facts flow from defining package to importer), applies
// //pdnlint:ignore suppression directives — the one way to waive a
// finding — and implements the unusedsuppress check that keeps those
// waivers honest. Every finding that survives fails the run.
// cmd/pdnlint is the CLI front end; internal/lint/analysistest reuses
// the same runner so fixtures see exactly the CI behavior.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"

	"pdn3d/internal/lint/analysis"
	"pdn3d/internal/lint/ctxflow"
	"pdn3d/internal/lint/floateq"
	"pdn3d/internal/lint/frozenmut"
	"pdn3d/internal/lint/load"
	"pdn3d/internal/lint/lockbalance"
	"pdn3d/internal/lint/mapiter"
	"pdn3d/internal/lint/obscontract"
	"pdn3d/internal/lint/rawgo"
	"pdn3d/internal/lint/seededrand"
	"pdn3d/internal/lint/suppress"
	"pdn3d/internal/lint/unusedsuppress"
	"pdn3d/internal/lint/walltime"
)

// Suite returns the full pdnlint analyzer suite in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mapiter.Analyzer,
		rawgo.Analyzer,
		floateq.Analyzer,
		seededrand.Analyzer,
		walltime.Analyzer,
		ctxflow.Analyzer,
		lockbalance.Analyzer,
		frozenmut.Analyzer,
		obscontract.Analyzer,
		unusedsuppress.Analyzer,
	}
}

// Load type-checks the packages matching patterns for analysis; it is a
// thin re-export of internal/lint/load.Load so drivers depend on one
// package.
func Load(dir string, patterns ...string) (*load.Program, error) {
	return load.Load(dir, patterns...)
}

// Finding is one unsuppressed diagnostic.
type Finding struct {
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Run executes the given analyzers over every package of prog in
// dependency order, sharing one fact store so facts exported while
// analyzing a package are visible to passes over its importers. It then
// filters diagnostics through //pdnlint:ignore directives and — when the
// suite includes unusedsuppress — reports directives that suppressed
// nothing. Findings are sorted by position, then analyzer, then message,
// so output is deterministic (the linter holds itself to the contract it
// enforces).
func Run(prog *load.Program, analyzers []*analysis.Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	checkSuppress := false
	for _, a := range analyzers {
		known[a.Name] = true
		if a.Name == unusedsuppress.Analyzer.Name {
			checkSuppress = true
		}
	}

	store := analysis.NewFactStore()
	var findings []Finding
	var directives []*suppress.Directive
	for _, pkg := range prog.DependencyOrder() {
		var dirs []*suppress.Directive
		for _, f := range pkg.Files {
			name := prog.Fset.Position(f.Pos()).Filename
			if src, ok := pkg.Src[name]; ok {
				dirs = append(dirs, suppress.ParseFile(prog.Fset, f, src)...)
			}
		}
		directives = append(directives, dirs...)

		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Path:      pkg.ImportPath,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			store.Bind(pass)
			var diags []analysis.Diagnostic
			pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				pos := prog.Fset.Position(d.Pos)
				if suppress.Match(dirs, a.Name, pos.Filename, pos.Line) != nil {
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}

	if checkSuppress {
		findings = append(findings, auditDirectives(prog.Fset, directives, known)...)
	}

	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by (file, line, column, analyzer,
// message) — the deterministic output order every driver emits.
// Analyzer execution order never leaks into reports: two analyzers
// hitting the same position tie-break alphabetically.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// relPath renders path relative to root with forward slashes — the form
// both the plain and the JSON output use. Paths outside root (or when
// root is empty) pass through unchanged apart from slash normalization.
func relPath(root, path string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, path); err == nil && rel != ".." && !filepath.IsAbs(rel) &&
			!(len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator)) {
			path = rel
		}
	}
	return filepath.ToSlash(path)
}

// WriteText renders findings one per line in the file:line:col form of
// Finding.String, with paths relative to root as in WriteJSON.
func WriteText(w io.Writer, findings []Finding, root string) error {
	for _, f := range findings {
		f.Pos.Filename = relPath(root, f.Pos.Filename)
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// jsonFinding is the -json wire form of one finding; the field set is
// part of the CLI contract (CI uploads it as an artifact).
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// WriteJSON renders findings as a JSON array (one object per finding,
// paths relative to root) followed by a newline. An empty run writes
// "[]" so consumers can always json-decode the artifact.
func WriteJSON(w io.Writer, findings []Finding, root string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     relPath(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// auditDirectives produces the unusedsuppress findings for one run.
func auditDirectives(fset *token.FileSet, dirs []*suppress.Directive, known map[string]bool) []Finding {
	name := unusedsuppress.Analyzer.Name
	var out []Finding
	for _, d := range dirs {
		pos := fset.Position(d.Pos)
		switch {
		case d.Analyzer == "" || d.Reason == "":
			out = append(out, Finding{Analyzer: name, Pos: pos,
				Message: "malformed suppression; the form is //pdnlint:ignore <analyzer> <reason>"})
		case !known[d.Analyzer]:
			out = append(out, Finding{Analyzer: name, Pos: pos,
				Message: fmt.Sprintf("suppression names unknown analyzer %q", d.Analyzer)})
		case !d.Used:
			out = append(out, Finding{Analyzer: name, Pos: pos,
				Message: fmt.Sprintf("unused suppression: no %s diagnostic on line %d", d.Analyzer, d.TargetLine)})
		}
	}
	return out
}
