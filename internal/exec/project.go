package exec

import (
	"fmt"
	"strings"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// expandStars replaces * and A.* select items with explicit column
// references, preserving the source columns' dimension flags.
func expandStars(items []ast.SelectItem, cols []Col) []ast.SelectItem {
	var out []ast.SelectItem
	for _, it := range items {
		st, ok := it.Expr.(*ast.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		for _, c := range cols {
			if st.Table != "" && !strings.EqualFold(c.Qual, st.Table) {
				continue
			}
			if strings.HasPrefix(c.Name, "__") {
				continue
			}
			out = append(out, ast.SelectItem{
				Expr:    &ast.Ident{Table: c.Qual, Name: c.Name},
				Alias:   c.Name,
				DimQual: c.IsDim,
			})
		}
	}
	return out
}

// buildProjected assembles output vectors with per-column type
// promotion (all-Int stays Int; any Float promotes; mixed boxes).
func buildProjected(items []ast.SelectItem, colVals [][]value.Value) *Dataset {
	cols := make([]Col, len(items))
	vecs := make([]bat.Vector, len(items))
	for i, it := range items {
		t := promoteType(colVals[i])
		cols[i] = Col{Name: itemName(it, i), Typ: t, IsDim: it.DimQual}
		if id, ok := it.Expr.(*ast.Ident); ok {
			cols[i].Qual = id.Table
		}
		vecs[i] = bat.FromValues(t, colVals[i])
	}
	return &Dataset{Cols: cols, Vecs: vecs}
}

func promoteType(vals []value.Value) value.Type {
	t := value.Unknown
	for _, v := range vals {
		if v.Null {
			continue
		}
		switch {
		case t == value.Unknown:
			t = v.Typ
		case t == v.Typ:
		case t == value.Int && v.Typ == value.Float, t == value.Float && v.Typ == value.Int:
			t = value.Float
		default:
			return value.Unknown // boxed AnyVector
		}
	}
	if t == value.Unknown {
		return value.Float
	}
	return t
}

// --- aggregate rewriting -----------------------------------------------------

// aggCollector assigns placeholder columns to aggregate calls during
// grouped evaluation.
type aggCollector struct {
	calls []*ast.FuncCall
	names []string
}

func (a *aggCollector) placeholder(f *ast.FuncCall) string {
	for i, c := range a.calls {
		if c == f {
			return a.names[i]
		}
	}
	name := fmt.Sprintf("__agg%d", len(a.calls))
	a.calls = append(a.calls, f)
	a.names = append(a.names, name)
	return name
}

// rewriteAggs deep-copies x, replacing aggregate calls with
// placeholder identifiers registered in ac.
func rewriteAggs(x ast.Expr, ac *aggCollector) ast.Expr {
	return transformExpr(x, func(n ast.Expr) ast.Expr {
		if f, ok := n.(*ast.FuncCall); ok && f.IsAggregate() {
			return &ast.Ident{Name: ac.placeholder(f)}
		}
		return nil
	})
}

// transformExpr rebuilds the expression tree, letting f substitute
// whole subtrees (returning non-nil stops recursion on that node).
func transformExpr(x ast.Expr, f func(ast.Expr) ast.Expr) ast.Expr {
	if x == nil {
		return nil
	}
	if r := f(x); r != nil {
		return r
	}
	switch t := x.(type) {
	case *ast.Unary:
		return &ast.Unary{Op: t.Op, X: transformExpr(t.X, f)}
	case *ast.Binary:
		return &ast.Binary{Op: t.Op, L: transformExpr(t.L, f), R: transformExpr(t.R, f)}
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: t.Name, Star: t.Star, Distinct: t.Distinct}
		for _, a := range t.Args {
			out.Args = append(out.Args, transformExpr(a, f))
		}
		return out
	case *ast.Case:
		out := &ast.Case{Operand: transformExpr(t.Operand, f), Else: transformExpr(t.Else, f)}
		for _, w := range t.Whens {
			out.Whens = append(out.Whens, ast.WhenClause{
				Cond:   transformExpr(w.Cond, f),
				Result: transformExpr(w.Result, f),
			})
		}
		return out
	case *ast.Cast:
		return &ast.Cast{X: transformExpr(t.X, f), To: t.To}
	case *ast.IsNull:
		return &ast.IsNull{X: transformExpr(t.X, f), Neg: t.Neg}
	case *ast.Between:
		return &ast.Between{X: transformExpr(t.X, f), Lo: transformExpr(t.Lo, f), Hi: transformExpr(t.Hi, f), Neg: t.Neg}
	case *ast.InList:
		out := &ast.InList{X: transformExpr(t.X, f), Neg: t.Neg}
		for _, el := range t.Elems {
			out.Elems = append(out.Elems, transformExpr(el, f))
		}
		return out
	case *ast.ArrayRef:
		out := &ast.ArrayRef{Base: transformExpr(t.Base, f), Attr: t.Attr}
		for _, ix := range t.Indexers {
			out.Indexers = append(out.Indexers, ast.Indexer{
				Point: transformExpr(ix.Point, f),
				Start: transformExpr(ix.Start, f),
				Stop:  transformExpr(ix.Stop, f),
				Step:  transformExpr(ix.Step, f),
				Star:  ix.Star,
				Range: ix.Range,
			})
		}
		return out
	case *ast.ExprList:
		out := &ast.ExprList{}
		for _, el := range t.Elems {
			out.Elems = append(out.Elems, transformExpr(el, f))
		}
		return out
	default:
		return x
	}
}

// aggType picks the intermediate column type for an aggregate: COUNT
// is integral; MIN/MAX preserve their input type (boxed); SUM/AVG are
// floats.
func aggType(c *ast.FuncCall) value.Type {
	switch strings.ToUpper(c.Name) {
	case "COUNT":
		return value.Int
	case "MIN", "MAX":
		return value.Unknown // boxed, preserves input type
	default:
		return value.Float
	}
}

// andAll folds conjuncts back into one expression.
func andAll(conjs []ast.Expr) ast.Expr {
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

// --- NEXT() time-series rewriting ---------------------------------------------

// rewriteNextCalls implements the paper's next() builtin (§7.3.2): it
// sorts the source by its dimension columns and materializes, for
// every NEXT(col) occurrence, a shifted companion column holding the
// following row's value (NULL on the last row). Expressions are
// rewritten to reference the companion column.
func (e *Engine) rewriteNextCalls(sel *ast.Select, ds *Dataset, remaining []ast.Expr) (items []ast.SelectItem, where, having ast.Expr, rewrote bool, err error) {
	where = andAll(remaining)
	having = sel.Having
	items = sel.Items
	// Detect NEXT usage.
	used := map[string]bool{}
	scan := func(x ast.Expr) {
		ast.Walk(x, func(n ast.Expr) bool {
			if f, ok := n.(*ast.FuncCall); ok && strings.EqualFold(f.Name, "NEXT") && len(f.Args) == 1 {
				if id, ok := f.Args[0].(*ast.Ident); ok {
					used[strings.ToLower(id.Name)] = true
				}
			}
			return true
		})
	}
	for _, it := range items {
		scan(it.Expr)
	}
	scan(where)
	scan(having)
	if len(used) == 0 {
		return items, where, having, false, nil
	}
	// Order by the dimension columns (insertion order otherwise).
	var dimCols []int
	for i, c := range ds.Cols {
		if c.IsDim {
			dimCols = append(dimCols, i)
		}
	}
	if len(dimCols) > 0 {
		ds.SortBy(dimCols, nil)
	}
	for name := range used {
		ci := ds.ColIndex("", name)
		if ci < 0 {
			return nil, nil, nil, false, fmt.Errorf("next(%s): no such column", name)
		}
		n := ds.NumRows()
		nv := bat.New(ds.Cols[ci].Typ, n)
		for r := 0; r < n; r++ {
			if r+1 < n {
				nv.Append(ds.Vecs[ci].Get(r + 1))
			} else {
				nv.Append(value.NewNull(ds.Cols[ci].Typ))
			}
		}
		ds.Cols = append(ds.Cols, Col{Name: "__next_" + name, Typ: ds.Cols[ci].Typ})
		ds.Vecs = append(ds.Vecs, nv)
	}
	rw := func(x ast.Expr) ast.Expr {
		return transformExpr(x, func(n ast.Expr) ast.Expr {
			if f, ok := n.(*ast.FuncCall); ok && strings.EqualFold(f.Name, "NEXT") && len(f.Args) == 1 {
				if id, ok := f.Args[0].(*ast.Ident); ok {
					return &ast.Ident{Name: "__next_" + strings.ToLower(id.Name)}
				}
			}
			return nil
		})
	}
	outItems := make([]ast.SelectItem, len(items))
	for i, it := range items {
		outItems[i] = ast.SelectItem{Expr: rw(it.Expr), Alias: it.Alias, DimQual: it.DimQual}
	}
	return outItems, rw(where), rw(having), true, nil
}

// --- dataset → array ----------------------------------------------------------

// datasetToArray builds an array from a query result. When colDefs is
// non-nil it declares the target schema (function RETURNS ARRAY);
// otherwise dimension-qualified columns become dimensions with bounds
// from the minimal bounding box of the data (§4.1).
func (e *Engine) datasetToArray(ds *Dataset, colDefs []ast.ColDef, name string) (*array.Array, error) {
	var sch *array.Schema
	if colDefs != nil {
		s, err := e.compileSchema(colDefs, &baseEnv{})
		if err != nil {
			return nil, err
		}
		sch = s
	} else {
		s := &array.Schema{}
		for i, c := range ds.Cols {
			if c.IsDim {
				s.Dims = append(s.Dims, array.Dimension{
					Name: c.Name, Typ: dimType(c.Typ),
					Start: array.UnboundedLow, End: array.UnboundedHigh, Step: 1,
				})
			} else {
				s.Attrs = append(s.Attrs, array.Attr{Name: c.Name, Typ: ds.Cols[i].Typ, Default: value.NewNull(ds.Cols[i].Typ)})
			}
		}
		if len(s.Dims) == 0 {
			return nil, fmt.Errorf("result has no dimension-qualified columns; cannot coerce to an array")
		}
		sch = s
	}
	st, err := e.newStore(name, *sch)
	if err != nil {
		return nil, err
	}
	a := &array.Array{Name: name, Schema: *sch, Store: st}
	if err := e.fillArrayFromDataset(a, ds); err != nil {
		return nil, err
	}
	return a, nil
}

func dimType(t value.Type) value.Type {
	if t == value.Timestamp {
		return value.Timestamp
	}
	return value.Int
}

// fillArrayFromDataset writes query-result rows into an array's cells.
// Mapping rules (§3.3, §4.3):
//   - dimension-qualified columns pair with the array's dimensions in
//     order; remaining columns pair with attributes positionally;
//   - with no dimension columns and ndims+nattrs columns, the leading
//     columns are coordinates (INSERT INTO tmp SELECT x, y, AVG(v)...);
//   - with only attribute columns, cells fill in row-major dimension
//     order ("the array is filled in the order of the dimension
//     bounds").
func (e *Engine) fillArrayFromDataset(a *array.Array, ds *Dataset) error {
	nd, na := len(a.Schema.Dims), len(a.Schema.Attrs)
	// The rows may be views of a's own segments (INSERT INTO m SELECT …
	// FROM m): a writing statement copies a segment before it writes one.
	w, err := e.beginDML(a, nil, nil)
	if err != nil {
		return err
	}
	defer w.finish()
	var dimCols, attrCols []int
	for i, c := range ds.Cols {
		if c.IsDim {
			dimCols = append(dimCols, i)
		} else {
			attrCols = append(attrCols, i)
		}
	}
	n := ds.NumRows()
	coords := make([]bat.Vector, nd)
	switch {
	case len(dimCols) == nd && nd > 0:
		// Dimension-qualified mapping.
	case len(dimCols) == 0 && ds.NumCols() == nd+na:
		dimCols, attrCols = attrCols[:nd], attrCols[nd:]
	case len(dimCols) == 0 && ds.NumCols() == na:
		// Fill in row-major dimension order (last dimension fastest).
		lo, hi, err := a.BoundingBox()
		if err != nil {
			return fmt.Errorf("array %s: cannot fill an unbounded empty array positionally", a.Name)
		}
		cols := make([][]int64, nd)
		for d := range cols {
			cols[d] = make([]int64, n)
			coords[d] = bat.NewIntVector(cols[d])
		}
		cell := append([]int64(nil), lo...)
		for r := 0; r < n; r++ {
			for d := nd - 1; d >= 0; d-- {
				cols[d][r] = cell[d]
			}
			for d := nd - 1; d >= 0; d-- {
				if cell[d] += max(a.Schema.Dims[d].Step, 1); cell[d] <= hi[d] {
					break
				}
				cell[d] = lo[d]
			}
		}
	default:
		return fmt.Errorf("array %s: cannot map %d columns (%d dim-qualified) onto %d dims + %d attrs",
			a.Name, ds.NumCols(), len(dimCols), nd, na)
	}
	if len(attrCols) != na {
		return fmt.Errorf("array %s: %d attribute columns for %d attributes", a.Name, len(attrCols), na)
	}
	for d, ci := range dimCols {
		if coords[d] = ds.Vecs[ci]; coords[d].Type() != value.Timestamp {
			coords[d] = coerceVector(coords[d], value.Int)
		}
	}
	// Rows with a NULL coordinate or outside the valid domain are
	// dropped; values are coerced and CHECKed like any array write.
	keep, cells := w.moveRows(coords, nil)
	if len(keep) == 0 {
		return nil
	}
	return w.scatterBlocks(cells, func(ai, lo, hi int, _ []bat.Vector) bat.Vector {
		at := a.Schema.Attrs[ai]
		return checkColumn(coerceVector(ds.Vecs[attrCols[ai]].Gather(keep[lo:hi]), at.Typ), at, true)
	})
}
