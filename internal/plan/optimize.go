package plan

import (
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// PlanSelect is the compile-and-optimize entry point: fold constants
// on the AST, compile once, then apply the rule-based tree rewrites:
//
//  1. constant folding over every scalar expression;
//  2. predicate pushdown: WHERE conjuncts of the form <dim> op
//     <constant> become point/range restrictions on the array scan
//     (bounded-slice inference — the "symbolic reasoning over the
//     dimensions" of §2.3);
//  3. projection pruning: scan attributes never referenced by the
//     query are dropped from the scan's output.
//
// Note the annotations are a logical description: the interpreter
// applies its own runtime pushdown (exec.pushdownDims), which also
// handles host-parameter and outer-bound constants the planner cannot
// evaluate. Converging the two implementations is a ROADMAP item.
func PlanSelect(sel *ast.Select, cat Catalog) *Plan {
	np := Compile(foldSelect(sel), cat)
	np.pushdown(np.Root)
	np.prune(cat)
	return np
}

// --- rule 1: constant folding ----------------------------------------------

var foldEv = &expr.Evaluator{}

// foldable reports whether x is a pure constant subtree (no names, no
// engine hooks, no RAND).
func foldable(x ast.Expr) bool {
	ok := x != nil
	ast.Walk(x, func(n ast.Expr) bool {
		switch t := n.(type) {
		case *ast.Ident, *ast.Param, *ast.Subquery, *ast.ArrayRef, *ast.Star, *ast.ArrayLit, *ast.ExprList:
			ok = false
			return false
		case *ast.FuncCall:
			if t.IsAggregate() || !expr.IsBuiltin(t.Name) || strings.EqualFold(t.Name, "RAND") {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// foldExpr rebuilds x with every maximal constant subtree replaced by
// its literal value.
func foldExpr(x ast.Expr) ast.Expr {
	if x == nil {
		return nil
	}
	if _, isLit := x.(*ast.Literal); !isLit && foldable(x) {
		if v, err := foldEv.Eval(x, &expr.MapEnv{}); err == nil {
			return &ast.Literal{Val: v}
		}
	}
	switch t := x.(type) {
	case *ast.Unary:
		return &ast.Unary{Op: t.Op, X: foldExpr(t.X)}
	case *ast.Binary:
		return &ast.Binary{Op: t.Op, L: foldExpr(t.L), R: foldExpr(t.R)}
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: t.Name, Star: t.Star, Distinct: t.Distinct}
		for _, a := range t.Args {
			out.Args = append(out.Args, foldExpr(a))
		}
		return out
	case *ast.Case:
		out := &ast.Case{Operand: foldExpr(t.Operand), Else: foldExpr(t.Else)}
		for _, w := range t.Whens {
			out.Whens = append(out.Whens, ast.WhenClause{Cond: foldExpr(w.Cond), Result: foldExpr(w.Result)})
		}
		return out
	case *ast.Cast:
		return &ast.Cast{X: foldExpr(t.X), To: t.To}
	case *ast.IsNull:
		return &ast.IsNull{X: foldExpr(t.X), Neg: t.Neg}
	case *ast.Between:
		return &ast.Between{X: foldExpr(t.X), Lo: foldExpr(t.Lo), Hi: foldExpr(t.Hi), Neg: t.Neg}
	case *ast.InList:
		out := &ast.InList{X: foldExpr(t.X), Neg: t.Neg}
		for _, el := range t.Elems {
			out.Elems = append(out.Elems, foldExpr(el))
		}
		return out
	case *ast.ArrayRef:
		out := &ast.ArrayRef{Base: foldExpr(t.Base), Attr: t.Attr}
		for _, ix := range t.Indexers {
			out.Indexers = append(out.Indexers, ast.Indexer{
				Point: foldExpr(ix.Point), Start: foldExpr(ix.Start),
				Stop: foldExpr(ix.Stop), Step: foldExpr(ix.Step),
				Star: ix.Star, Range: ix.Range,
			})
		}
		return out
	default:
		return x
	}
}

// foldSelect deep-copies sel with all scalar expressions folded.
func foldSelect(sel *ast.Select) *ast.Select {
	out := &ast.Select{Distinct: sel.Distinct, SetOp: sel.SetOp}
	for _, it := range sel.Items {
		out.Items = append(out.Items, ast.SelectItem{Expr: foldExpr(it.Expr), Alias: it.Alias, DimQual: it.DimQual})
	}
	for _, fi := range sel.From {
		out.From = append(out.From, foldFromItem(fi))
	}
	out.Where = foldExpr(sel.Where)
	if sel.GroupBy != nil {
		gb := &ast.GroupBy{Distinct: sel.GroupBy.Distinct}
		for _, k := range sel.GroupBy.Exprs {
			gb.Exprs = append(gb.Exprs, foldExpr(k))
		}
		for _, t := range sel.GroupBy.Tiles {
			gb.Tiles = append(gb.Tiles, ast.TileElement{Ref: foldExpr(t.Ref).(*ast.ArrayRef)})
		}
		out.GroupBy = gb
	}
	out.Having = foldExpr(sel.Having)
	for _, oi := range sel.OrderBy {
		out.OrderBy = append(out.OrderBy, ast.OrderItem{Expr: foldExpr(oi.Expr), Desc: oi.Desc})
	}
	out.Limit = foldExpr(sel.Limit)
	if sel.SetRight != nil {
		out.SetRight = foldSelect(sel.SetRight)
	}
	return out
}

func foldFromItem(fi ast.FromItem) ast.FromItem {
	switch t := fi.(type) {
	case *ast.TableRef:
		out := &ast.TableRef{Name: t.Name, Subquery: t.Subquery, Alias: t.Alias}
		for _, ix := range t.Indexers {
			out.Indexers = append(out.Indexers, ast.Indexer{
				Point: foldExpr(ix.Point), Start: foldExpr(ix.Start),
				Stop: foldExpr(ix.Stop), Step: foldExpr(ix.Step),
				Star: ix.Star, Range: ix.Range,
			})
		}
		return out
	case *ast.Join:
		return &ast.Join{Left: foldFromItem(t.Left), Right: foldFromItem(t.Right), On: foldExpr(t.On), Kind: t.Kind}
	}
	return fi
}

// --- rule 2: predicate pushdown / slice inference ---------------------------

// pushdown walks the tree looking for Filter→Scan pairs and moves
// dimension point/range conjuncts into the scan's DimSels.
func (p *Plan) pushdown(n Node) {
	switch t := n.(type) {
	case *Filter:
		if sc, ok := t.Child.(*Scan); ok && !sc.Table {
			remaining := pushConjuncts(t.Cond, sc)
			if remaining == nil {
				// Fully consumed: splice the filter out.
				replaceChild(p.Root, t, sc)
				if p.Root == t {
					p.Root = sc
				}
			} else {
				t.Cond = remaining
			}
		}
		p.pushdown(t.Child)
	default:
		for _, c := range n.Children() {
			p.pushdown(c)
		}
	}
}

// replaceChild swaps old for new in the first parent found.
func replaceChild(root Node, old, new Node) bool {
	switch t := root.(type) {
	case *Filter:
		if t.Child == old {
			t.Child = new
			return true
		}
	case *Project:
		if t.Child == old {
			t.Child = new
			return true
		}
	case *Aggregate:
		if t.Child == old {
			t.Child = new
			return true
		}
	case *TiledAggregate:
		if t.Child == old {
			t.Child = new
			return true
		}
	case *Distinct:
		if t.Child == old {
			t.Child = new
			return true
		}
	case *Sort:
		if t.Child == old {
			t.Child = new
			return true
		}
	case *Limit:
		if t.Child == old {
			t.Child = new
			return true
		}
	}
	for _, c := range root.Children() {
		if replaceChild(c, old, new) {
			return true
		}
	}
	return false
}

// pushConjuncts consumes dim-vs-constant conjuncts into sc, returning
// the residual condition (nil when everything was pushed). The
// classification and consumption policy live in AnalyzeDimConjuncts,
// shared with the executor's runtime pushdown; here the constants are
// integer literals (post-folding) and dimensions already restricted by
// FROM-clause slicing are left entirely to the filter.
func pushConjuncts(cond ast.Expr, sc *Scan) ast.Expr {
	conjs := splitAnd(cond)
	resolve := func(id *ast.Ident) int {
		if id.Table != "" && !strings.EqualFold(id.Table, sc.scanQual()) {
			return -1
		}
		for i := range sc.Dims {
			if strings.EqualFold(sc.Dims[i].Name, id.Name) {
				return i
			}
		}
		return -1
	}
	eval := func(x ast.Expr) (int64, bool) {
		l, ok := x.(*ast.Literal)
		if !ok || l.Val.Null || l.Val.Typ != value.Int {
			return 0, false
		}
		return l.Val.I, true
	}
	blocked := func(di int) bool { return sc.Dims[di].Sliced }
	restrict, consumed := AnalyzeDimConjuncts(conjs, resolve, eval, blocked)
	// Apply in dimension order so the rendered plan is deterministic.
	for di := range sc.Dims {
		r := restrict[di]
		if r == nil {
			continue
		}
		d := &sc.Dims[di]
		switch {
		case r.Point:
			d.Point = strconv.FormatInt(r.Val, 10)
			d.Pushed = true
		case r.HasLo || r.HasHi:
			if r.HasLo {
				d.Lo = strconv.FormatInt(r.Lo, 10)
			}
			if r.HasHi {
				d.Hi = strconv.FormatInt(r.Hi, 10)
			}
			d.Pushed = true
		}
	}
	var residual []ast.Expr
	for i, c := range conjs {
		if !consumed[i] {
			residual = append(residual, c)
		}
	}
	return andJoin(residual)
}

func (s *Scan) scanQual() string {
	if s.Qual != "" {
		return s.Qual
	}
	return s.Name
}

func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func splitAnd(x ast.Expr) []ast.Expr {
	if x == nil {
		return nil
	}
	if b, ok := x.(*ast.Binary); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []ast.Expr{x}
}

func andJoin(conjs []ast.Expr) ast.Expr {
	var out ast.Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &ast.Binary{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// --- rule 3: projection pruning ---------------------------------------------

// prune drops scan attributes the query never references. A * target
// (or any unresolvable reference shape) disables pruning.
func (p *Plan) prune(cat Catalog) {
	refs, prunable := referencedNames(p.sel)
	if !prunable {
		return
	}
	var walk func(n Node)
	walk = func(n Node) {
		if sc, ok := n.(*Scan); ok && !sc.Table {
			var kept []string
			for _, a := range sc.Attrs {
				if refs[strings.ToLower(a)] {
					kept = append(kept, a)
				}
			}
			if len(kept) < len(sc.Attrs) {
				sc.Attrs = kept
				sc.AllAttrs = false
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
}

// referencedNames collects every identifier name mentioned anywhere in
// the select (lowercased); ok is false when a * item makes the
// reference set unbounded.
func referencedNames(sel *ast.Select) (map[string]bool, bool) {
	refs := make(map[string]bool)
	ok := true
	visit := func(x ast.Expr) {
		ast.Walk(x, func(n ast.Expr) bool {
			switch t := n.(type) {
			case *ast.Star:
				ok = false
				return false
			case *ast.Ident:
				refs[strings.ToLower(t.Name)] = true
			case *ast.Subquery:
				// Correlated subqueries may reference anything.
				ok = false
				return false
			}
			return true
		})
	}
	// A join key named only in its ON condition is still a reference:
	// FROM items are visited through their JOIN trees.
	var visitFrom func(fi ast.FromItem)
	visitFrom = func(fi ast.FromItem) {
		switch t := fi.(type) {
		case *ast.TableRef:
			for _, ix := range t.Indexers {
				visit(ix.Point)
				visit(ix.Start)
				visit(ix.Stop)
				visit(ix.Step)
			}
		case *ast.Join:
			visitFrom(t.Left)
			visitFrom(t.Right)
			visit(t.On)
		}
	}
	for cur := sel; cur != nil; cur = cur.SetRight {
		for _, it := range cur.Items {
			visit(it.Expr)
		}
		for _, fi := range cur.From {
			visitFrom(fi)
		}
		visit(cur.Where)
		if cur.GroupBy != nil {
			for _, k := range cur.GroupBy.Exprs {
				visit(k)
			}
			for _, t := range cur.GroupBy.Tiles {
				visit(t.Ref)
			}
		}
		visit(cur.Having)
		for _, oi := range cur.OrderBy {
			visit(oi.Expr)
		}
		visit(cur.Limit)
	}
	return refs, ok
}
