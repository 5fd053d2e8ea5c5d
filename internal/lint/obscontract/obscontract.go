// Package obscontract machine-checks the observability layer's
// conventions, which the exporters and dashboards depend on but the
// compiler cannot see:
//
//   - metric names are constant strings matching [a-z0-9_.]+ (the
//     Prometheus exporter sanitizes anything else lossily),
//   - a metric name keeps one kind module-wide — registering "x" as a
//     Counter in one package and a Gauge in another panics at runtime
//     (Registry.get's kind check) and this analyzer catches it at lint
//     time via package facts; within one package, re-registering the
//     same name with the same kind is the get-or-create idiom and is
//     allowed,
//   - Counter.Add never takes a negative constant (counters are
//     monotonic; use a Gauge for deltas),
//   - a span obtained from Trace.Span or TraceSpan.Child — obs's one
//     span type, so request spans and the run-trace spans exp and opt
//     open through Registry.Trace alike — is ended on every return
//     path — a forward may-analysis over the function's CFG; handing
//     the span to another function, storing it, or returning it
//     transfers the obligation and ends tracking,
//   - a solve recorder obtained from SolveBuffer.StartSolveRecord is
//     committed on every return path — the same may-analysis, closing
//     on Commit instead of End. An uncommitted recorder silently drops
//     the solve from /debug/solves, which is exactly the record a
//     failed or cancelled solve needs.
//
// Test files are exempt: tests deliberately provoke the runtime panics
// these rules prevent.
package obscontract

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"pdn3d/internal/lint/analysis"
	"pdn3d/internal/lint/dataflow"
)

// Analyzer is the obscontract check.
var Analyzer = &analysis.Analyzer{
	Name: "obscontract",
	Doc: "enforces obs conventions: metric names match [a-z0-9_.]+ and keep " +
		"one kind module-wide, counters never Add negative constants, " +
		"every span from Trace.Span/TraceSpan.Child is ended on all return paths, " +
		"and every recorder from SolveBuffer.StartSolveRecord is committed on all return paths",
	Run:       run,
	UsesFacts: true,
}

// MetricsFact records, per package, the kind each constant metric name
// was registered with, so cross-package kind conflicts surface at lint
// time instead of as a runtime panic.
type MetricsFact struct {
	// Kinds maps metric name to kind ("counter", "gauge", "histogram",
	// "timer").
	Kinds map[string]string
}

// AFact implements analysis.Fact.
func (*MetricsFact) AFact() {}

// registryKinds maps Registry method names to the kind they register.
var registryKinds = map[string]string{
	"Counter":       "counter",
	"Gauge":         "gauge",
	"InfoGauge":     "gauge",
	"Histogram":     "histogram",
	"InfoHistogram": "histogram",
	"Timer":         "timer",
}

var nameRE = regexp.MustCompile(`^[a-z0-9_.]+$`)

// isObsPath reports whether pkgPath is the observability package (or a
// fixture mirror of it).
func isObsPath(pkgPath string) bool {
	return pkgPath == "internal/obs" || strings.HasSuffix(pkgPath, "/internal/obs")
}

// obsMethod resolves call to a method of the named receiver type
// declared in the obs package, returning the method or nil.
func obsMethod(info *types.Info, call *ast.CallExpr, recvType string) *types.Func {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !isObsPath(fn.Pkg().Path()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != recvType {
		return nil
	}
	return fn
}

// constString extracts e's constant string value.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func run(pass *analysis.Pass) error {
	kinds := map[string]string{}
	for _, f := range pass.Files {
		if analysis.IsTestFilename(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		checkMetrics(pass, f, kinds)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkSpans(pass, fn)
			}
		}
	}
	if len(kinds) > 0 {
		pass.ExportPackageFact(&MetricsFact{Kinds: kinds})
	}
	return nil
}

// checkMetrics validates registration calls and Counter.Add arguments
// in one file, accumulating this package's name->kind table.
func checkMetrics(pass *analysis.Pass, f *ast.File, kinds map[string]string) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := obsMethod(info, call, "Registry"); fn != nil {
			if kind, isReg := registryKinds[fn.Name()]; isReg && len(call.Args) > 0 {
				checkRegistration(pass, call, kind, kinds)
			}
			return true
		}
		if fn := obsMethod(info, call, "Counter"); fn != nil && fn.Name() == "Add" && len(call.Args) == 1 {
			if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if v, ok := constant.Int64Val(tv.Value); ok && v < 0 {
					pass.Reportf(call.Args[0].Pos(),
						"Counter.Add(%d): counters are monotonic; use a Gauge for values that go down", v)
				}
			}
		}
		return true
	})
}

func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, kind string, kinds map[string]string) {
	name, ok := constString(pass.TypesInfo, call.Args[0])
	if !ok {
		// Dynamically built names (per-endpoint metrics) are validated
		// at runtime by the registry; the static contract covers
		// constants only.
		return
	}
	if !nameRE.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(),
			"metric name %q does not match [a-z0-9_.]+; the exporter would sanitize it lossily", name)
	}
	if prev, seen := kinds[name]; seen && prev != kind {
		pass.Reportf(call.Args[0].Pos(),
			"metric %q already registered as a %s in this package; registering it as a %s would panic at runtime", name, prev, kind)
		return
	}
	for _, pf := range pass.AllPackageFacts() {
		if pf.Package == pass.Pkg {
			continue
		}
		mf, ok := pf.Fact.(*MetricsFact)
		if !ok {
			continue
		}
		if prev, seen := mf.Kinds[name]; seen && prev != kind {
			pass.Reportf(call.Args[0].Pos(),
				"metric %q already registered as a %s in %s; registering it as a %s would panic at runtime",
				name, prev, pf.Package.Path(), kind)
			return
		}
	}
	if _, seen := kinds[name]; !seen {
		kinds[name] = kind
	}
}

// spanState is the may-analysis state for checkSpans: the set of spans
// (by object) that may still be open, each mapped to its creation
// position for reporting.
type spanState map[types.Object]ast.Expr

// checkSpans verifies every span this function creates is ended (or
// handed off) on every path to return.
func checkSpans(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	g := dataflow.Build(fn.Body)

	meet := func(a, b spanState) spanState {
		if len(a) == 0 {
			return b
		}
		if len(b) == 0 {
			return a
		}
		out := make(spanState, len(a)+len(b))
		for k, v := range a {
			out[k] = v
		}
		for k, v := range b {
			if _, ok := out[k]; !ok {
				out[k] = v
			}
		}
		return out
	}
	equal := func(a, b spanState) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if _, ok := b[k]; !ok {
				return false
			}
		}
		return true
	}
	transfer := func(s spanState, n ast.Node) spanState {
		opens, closes := spanEffects(info, n)
		if len(opens) == 0 && len(closes) == 0 {
			return s
		}
		out := make(spanState, len(s)+len(opens))
		for k, v := range s {
			out[k] = v
		}
		for _, c := range closes {
			delete(out, c)
		}
		for obj, at := range opens {
			out[obj] = at
		}
		return out
	}

	in := dataflow.Forward(g, spanState{}, meet, equal, transfer)
	leaked := map[types.Object]ast.Expr{}
	for _, blk := range g.Blocks {
		st, ok := in[blk]
		if !ok {
			continue
		}
		out := dataflow.EachNodeState(blk, st, transfer, func(ast.Node, spanState) {})
		for _, succ := range blk.Succs {
			if succ != g.Exit {
				continue
			}
			for obj, at := range out {
				if _, dup := leaked[obj]; !dup {
					leaked[obj] = at
				}
			}
		}
	}
	for obj, at := range leaked {
		if isRecorderObj(obj) {
			pass.Reportf(at.Pos(),
				"solve recorder %s is not committed on every return path; call Commit (or defer it) before returning", obj.Name())
			continue
		}
		pass.Reportf(at.Pos(),
			"span %s is not ended on every return path; call End (or defer it) before returning", obj.Name())
	}
}

// isRecorderObj reports whether obj is a *obs.SolveRecorder local — the
// tracked kind that closes on Commit rather than End.
func isRecorderObj(obj types.Object) bool {
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "SolveRecorder" &&
		named.Obj().Pkg() != nil && isObsPath(named.Obj().Pkg().Path())
}

// isSpanConstructor reports whether e creates a tracked obligation: a
// span from Trace.Span or TraceSpan.Child, or a solve recorder from
// SolveBuffer.StartSolveRecord.
func isSpanConstructor(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn := obsMethod(info, call, "Trace"); fn != nil && fn.Name() == "Span" {
		return true
	}
	if fn := obsMethod(info, call, "TraceSpan"); fn != nil && fn.Name() == "Child" {
		return true
	}
	if fn := obsMethod(info, call, "SolveBuffer"); fn != nil && fn.Name() == "StartSolveRecord" {
		return true
	}
	return false
}

// localVar resolves id to a function-local variable object.
func localVar(info *types.Info, id *ast.Ident) types.Object {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
		return v
	}
	return nil
}

// spanEffects computes, for one CFG node, the spans it opens (local var
// := constructor call) and the spans it closes. A span closes when End
// is called on it, when a defer will End it, or when the value escapes
// this function's custody: passed as an argument, returned, stored, or
// captured by a function literal — whoever receives it owns the End.
func spanEffects(info *types.Info, n ast.Node) (opens map[types.Object]ast.Expr, closes []types.Object) {
	for _, h := range dataflow.HeaderOnly(n) {
		ast.Inspect(h, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					if len(m.Lhs) == len(m.Rhs) && isSpanConstructor(info, rhs) {
						id, ok := m.Lhs[i].(*ast.Ident)
						if !ok {
							continue
						}
						if obj := localVar(info, id); obj != nil {
							if opens == nil {
								opens = map[types.Object]ast.Expr{}
							}
							opens[obj] = rhs
						}
						continue
					}
					// Aliasing or storing a tracked span (s2 := s,
					// x.f = s) hands off the End obligation.
					closes = append(closes, escapedSpans(info, rhs)...)
				}
			case *ast.CallExpr:
				// s.End() closes a span, r.Commit() a recorder. Other
				// method calls on the receiver (Annotate, Child, Dur,
				// RecordIter) neither close nor escape it. Any use of a
				// tracked value in argument position escapes it.
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := localVar(info, id); obj != nil {
							if sel.Sel.Name == "End" || sel.Sel.Name == "Commit" {
								closes = append(closes, obj)
							}
							for _, arg := range m.Args {
								closes = append(closes, escapedSpans(info, arg)...)
							}
							return false
						}
					}
				}
				for _, arg := range m.Args {
					closes = append(closes, escapedSpans(info, arg)...)
				}
				return true
			case *ast.ReturnStmt:
				for _, res := range m.Results {
					closes = append(closes, escapedSpans(info, res)...)
				}
			case *ast.FuncLit:
				// A closure capturing the span takes over (or shares)
				// the End obligation; stop tracking. The literal's own
				// spans are its own function's problem.
				ast.Inspect(m.Body, func(k ast.Node) bool {
					if id, ok := k.(*ast.Ident); ok {
						if obj := localVar(info, id); obj != nil {
							closes = append(closes, obj)
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}
	return opens, closes
}

// escapedSpans lists local variables mentioned anywhere in e — used for
// argument, return, and store positions, where a mention hands the span
// (and its End obligation) to someone else.
func escapedSpans(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return true // captures handled by the FuncLit case above
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := localVar(info, id); obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}
