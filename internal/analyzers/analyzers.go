// Package analyzers is the sciql-lint suite: custom static-analysis
// passes encoding engine invariants that convention alone used to
// carry. Each analyzer documents the invariant it machine-checks; the
// suite runs through cmd/sciql-lint (a go vet -vettool) and through
// the analyzertest fixtures.
//
// Findings are suppressed with a //lint:allow comment on the flagged
// line or the line above it:
//
//	//lint:allow ctxpoll bounded 3x3 neighborhood, never chunk-scale
//	a.Store.Scan(func(coords []int64, vals []value.Value) bool { ...
//
// The directive must name the analyzer and give a reason; bare
// //lint:allow comments do not suppress anything.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
)

// All returns the suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{CatalogAccess, HotLoopFlush, CtxPoll, LockOrder}
}

// Run applies the analyzers to one type-checked package and returns
// the surviving diagnostics (suppressions applied), sorted by
// position. Both drivers — the unitchecker behind go vet and the
// analyzertest harness — report through here, so suppression
// semantics cannot drift between them.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, as []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range as {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				d.Category = a.Name
				diags = append(diags, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	allow := collectAllows(fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if !allow.suppresses(fset, d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept, nil
}

// allowSet records //lint:allow directives: file → line → analyzer
// names allowed there.
type allowSet map[string]map[int][]string

func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) < 2 {
					// Analyzer name AND a reason are both required;
					// reasonless suppressions stay findings.
					continue
				}
				pos := fset.Position(c.Pos())
				m := set[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					set[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], fields[0])
			}
		}
	}
	return set
}

// suppresses reports whether d is covered by an allow directive on
// its own line or the line directly above it.
func (s allowSet) suppresses(fset *token.FileSet, d analysis.Diagnostic) bool {
	pos := fset.Position(d.Pos)
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Category {
				return true
			}
		}
	}
	return false
}

// --- shared type/scope helpers ----------------------------------------------

// pkgPathHasSuffix reports whether the package path ends in suffix on
// a path-segment boundary, so analyzers scope to engine packages both
// in the real tree ("repro/internal/exec") and in test fixtures
// ("internal/exec") without matching accidents like "os/exec".
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// fileBase returns the basename of the file containing pos.
func fileBase(fset *token.FileSet, pos token.Pos) string {
	name := fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// isTestFile reports whether the file containing pos is a _test.go
// file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fileBase(fset, pos), "_test.go")
}

// deref unwraps pointers.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedFrom reports the declaring package and type name of t (through
// pointers and aliases); ok is false for unnamed types.
func namedFrom(t types.Type) (pkg *types.Package, name string, ok bool) {
	if t == nil {
		return nil, "", false
	}
	u := types.Unalias(t)
	if p, isPtr := u.(*types.Pointer); isPtr {
		u = types.Unalias(p.Elem())
	}
	n, isNamed := u.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	obj := n.Obj()
	return obj.Pkg(), obj.Name(), true
}

// isNamedType reports whether t is (a pointer to) the named type
// pkgSuffix.name, with pkgSuffix matched on a path-segment boundary.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	pkg, tname, ok := namedFrom(t)
	if !ok || tname != name {
		return false
	}
	return pkgPathHasSuffix(pkg, pkgSuffix)
}

// methodCall decomposes call into (receiver expression, method name)
// when its function is a selector; ok is false otherwise.
func methodCall(call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isCellVisitor reports whether t is the store-scan visitor signature
// func(coords []int64, vals []value.Value) bool — the per-cell hot
// path of every storage scheme.
func isCellVisitor(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	p0, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if b, ok := p0.Elem().Underlying().(*types.Basic); !ok || b.Kind() != types.Int64 {
		return false
	}
	p1, ok := sig.Params().At(1).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isNamedType(p1.Elem(), "value", "Value")
}

// isBatchVisitor reports whether t is the columnar scan's batch
// visitor signature func(array.ColumnBatch) bool — the per-batch step
// of every SELECT scan since the column-batch pipeline replaced the
// per-cell callback there.
func isBatchVisitor(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	return isNamedType(sig.Params().At(0).Type(), "array", "ColumnBatch")
}

// pullsBatch reports whether a loop body takes a column batch from a
// result cursor at its own level — sciql.Rows.Batch or
// exec.Cursor.NextBatch, outside any nested loop or function literal.
// Such a loop runs once per batch (up to thousands of rows), not once
// per row: the granularity at which the row-streaming paths flush
// counters and poll their context.
func pullsBatch(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if recv, method, ok := methodCall(x); ok {
				t := pass.TypeOf(recv)
				found = found || method == "Batch" && isNamedType(t, "sciql", "Rows") ||
					method == "NextBatch" && isNamedType(t, "internal/exec", "Cursor")
			}
		}
		return !found
	})
	return found
}

// isDatasetVisitor reports whether t is the executor's per-batch step
// func(*Dataset) error (or bool): what scanChunk, and through it a DML
// statement's walk, calls once per scan batch.
func isDatasetVisitor(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	switch r := sig.Results().At(0).Type(); {
	case types.Identical(r, types.Universe.Lookup("error").Type()):
	case types.Identical(r.Underlying(), types.Typ[types.Bool]):
	default:
		return false
	}
	return isNamedType(sig.Params().At(0).Type(), "internal/exec", "Dataset")
}
