package exec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// source describes one resolved FROM item backed by an array (tables
// have arr == nil). Tiling and slicing consult it.
type source struct {
	name  string
	alias string
	arr   *array.Array
	// sels restricts the scan when the FROM item was sliced
	// (FROM vmatrix[0:3][0:3]); nil means the full array.
	sels []dimSel
}

func (s *source) qual() string {
	if s.alias != "" {
		return s.alias
	}
	return s.name
}

// execSelect runs a query expression including UNION chains.
func (e *Engine) execSelect(sel *ast.Select, outer expr.Env) (*Dataset, error) {
	left, err := e.execSelectCore(sel, outer)
	if err != nil {
		return nil, err
	}
	if sel.SetRight == nil {
		return left, nil
	}
	right, err := e.execSelect(sel.SetRight, outer)
	if err != nil {
		return nil, err
	}
	if left.NumCols() != right.NumCols() {
		return nil, fmt.Errorf("UNION operands have %d and %d columns", left.NumCols(), right.NumCols())
	}
	left.concat(right)
	if sel.SetOp == "UNION" {
		return e.dedupe(left)
	}
	return left, nil
}

func (e *Engine) execSelectCore(sel *ast.Select, outer expr.Env) (*Dataset, error) {
	// FROM-less or vacuous-FROM selects evaluate the target list once
	// under the outer environment (point array refs, literals).
	if len(sel.From) == 0 || e.fromIsVacuous(sel, outer) {
		return e.projectRowless(sel, outer)
	}
	// Streamable scan→filter→project pipelines run fused per scan
	// chunk on the materializing path too, when there is something to
	// gain: compiled kernel batches, or LIMIT pushed into the scan.
	// Aggregation and value grouping over one array fold per scan chunk.
	if be, isBase := outer.(*baseEnv); isBase {
		if ds, handled, err := e.fusedScanSelect(sel, be); handled || err != nil {
			return ds, err
		}
		if ds, handled, err := e.aggScanSelect(sel, be); handled || err != nil {
			return ds, err
		}
	}
	// The planner gates the morsel-driven path: dec.par is the worker
	// count when the optimized plan shape and the expressions qualify,
	// 1 (serial interpreter) otherwise. The decision also carries the
	// optimizer's pruned scan projections, applied inside buildFrom.
	dec := e.selectDecision(sel)
	par := dec.par
	conjs := splitConjuncts(sel.Where)
	pf := e.prof
	var t0 time.Time
	var scanned int64
	if pf != nil {
		t0 = time.Now()
		scanned = pf.Scan.Chunks.Load()
	}
	ds, sources, remaining, err := e.buildFrom(sel.From, conjs, outer, dec)
	if err != nil {
		return nil, err
	}
	if pf != nil {
		// Array scans publish their own chunk-level statistics; sources
		// that are not chunked (tables, derived tables, single-cell
		// reads) count as one chunk here.
		if pf.Scan.Chunks.Load() == scanned {
			pf.Scan.AddNanos(time.Since(t0))
			pf.Scan.RowsOut.Add(int64(ds.NumRows()))
			pf.Scan.Chunks.Add(1)
			pf.Scan.Cells.Add(int64(ds.NumRows()))
			pf.Scan.RowBatches.Add(1)
		}
		if len(sel.From) > 1 {
			// buildFrom materializes the join product in the same pass.
			pf.Join.RowsOut.Add(int64(ds.NumRows()))
			pf.Join.RowBatches.Add(1)
		}
	}
	// Structural (tiling) grouping takes its own path.
	if sel.GroupBy != nil && len(sel.GroupBy.Tiles) > 0 {
		if pf == nil {
			return e.execTiling(sel, ds, sources, remaining, outer, par)
		}
		in := ds.NumRows()
		t0 = time.Now()
		out, err := e.execTiling(sel, ds, sources, remaining, outer, par)
		if err != nil {
			return nil, err
		}
		pf.Tiled.AddNanos(time.Since(t0))
		pf.Tiled.RowsIn.Add(int64(in))
		pf.Tiled.RowsOut.Add(int64(out.NumRows()))
		return out, nil
	}
	// NEXT(col) rewriting requires an ordered view of the source.
	items, where, having, rewrote, err := e.rewriteNextCalls(sel, ds, remaining)
	if err != nil {
		return nil, err
	}
	_ = rewrote
	// Row filter.
	if where != nil {
		if pf != nil {
			t0 = time.Now()
			pf.Filter.RowsIn.Add(int64(ds.NumRows()))
		}
		keep, err := e.filterKeep(where, ds, outer, par)
		if err != nil {
			return nil, err
		}
		ds = ds.Gather(keep)
		if pf != nil {
			pf.Filter.AddNanos(time.Since(t0))
			pf.Filter.RowsOut.Add(int64(ds.NumRows()))
			pf.Filter.RowBatches.Add(1)
		}
	}
	// Value grouping / plain aggregation.
	hasAgg := false
	for _, it := range items {
		if it.Expr != nil && ast.HasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if having != nil && ast.HasAggregate(having) {
		hasAgg = true
	}
	var out *Dataset
	sorted := false
	if (sel.GroupBy != nil && len(sel.GroupBy.Exprs) > 0) || hasAgg {
		if pf != nil {
			t0 = time.Now()
			pf.Aggregate.RowsIn.Add(int64(ds.NumRows()))
		}
		out, err = e.execValueGroupBy(sel, items, having, ds, outer, par)
		if err != nil {
			return nil, err
		}
		if pf != nil {
			pf.Aggregate.AddNanos(time.Since(t0))
			pf.Aggregate.RowsOut.Add(int64(out.NumRows()))
			pf.Aggregate.RowBatches.Add(1)
		}
	} else {
		// ORDER BY may name source columns that the projection drops;
		// sort the source first when every key resolves there.
		if len(sel.OrderBy) > 0 {
			if cols, desc, ok := resolveOrderCols(sel.OrderBy, ds); ok {
				if pf != nil {
					t0 = time.Now()
				}
				ds.SortBy(cols, desc)
				if pf != nil {
					pf.Sort.AddNanos(time.Since(t0))
					pf.Sort.RowsIn.Add(int64(ds.NumRows()))
					pf.Sort.RowsOut.Add(int64(ds.NumRows()))
					pf.Sort.RowBatches.Add(1)
				}
				sorted = true
			}
		}
		if pf != nil {
			t0 = time.Now()
			pf.Project.RowsIn.Add(int64(ds.NumRows()))
		}
		out, err = e.projectWith(items, ds, outer, par)
		if err != nil {
			return nil, err
		}
		if pf != nil {
			pf.Project.AddNanos(time.Since(t0))
			pf.Project.RowsOut.Add(int64(out.NumRows()))
			pf.Project.RowBatches.Add(1)
		}
		// HAVING without grouping post-filters (the paper's gap query).
		if having != nil {
			if pf != nil {
				t0 = time.Now()
				pf.Having.RowsIn.Add(int64(out.NumRows()))
			}
			keep, err := e.filterKeep(having, ds, outer, par)
			if err != nil {
				return nil, err
			}
			out = out.Gather(keep)
			if pf != nil {
				pf.Having.AddNanos(time.Since(t0))
				pf.Having.RowsOut.Add(int64(out.NumRows()))
				pf.Having.RowBatches.Add(1)
			}
		}
	}
	return e.finishSelectSorted(sel, out, outer, sorted)
}

// fusedScanSelect executes a streamable SELECT through the chunked
// scan pipeline (filter + projection per scan batch) and materializes
// the batches. handled is false when the statement's shape does not
// qualify, or when the fused path has nothing to offer over the
// generic scan (no compiled kernels and no LIMIT to push down) —
// results are byte-identical either way, by the stream/materialize
// identity contract.
func (e *Engine) fusedScanSelect(sel *ast.Select, env *baseEnv) (*Dataset, bool, error) {
	// The "nothing to offer" verdict is stable per statement (kernel
	// eligibility is schema-dependent, LIMIT presence is syntactic), so
	// it memoizes: repeated executions of a non-fusable shape skip the
	// stream analysis entirely. Invalidated with the plan cache.
	ver := e.cat().SchemaVersion()
	if sel.Limit == nil {
		e.vecMu.Lock()
		skipVer, skip := e.fusedSkip[sel]
		e.vecMu.Unlock()
		// Verdicts are schema-dependent; one stamped with another
		// catalog version is stale and re-analyzes.
		if skip && skipVer == ver {
			return nil, false, nil
		}
	}
	sp, ok, err := e.compileStream(sel, env)
	if err != nil || !ok || allPoint(sp.eff) {
		return nil, false, err
	}
	if sp.vec == nil && sp.limit < 0 {
		e.vecMu.Lock()
		if e.fusedSkip == nil || len(e.fusedSkip) >= planCacheMax {
			e.fusedSkip = make(map[*ast.Select]int64)
		}
		e.fusedSkip[sel] = ver
		e.vecMu.Unlock()
		return nil, false, nil
	}
	cur, err := e.streamCursorFor(e.ctx(), sp)
	if err != nil {
		return nil, true, err
	}
	ds, err := cur.Materialize()
	return ds, true, err
}

// resolveOrderCols maps ORDER BY keys onto dataset columns (by name or
// 1-based ordinal); ok is false when any key does not resolve.
func resolveOrderCols(items []ast.OrderItem, ds *Dataset) (cols []int, desc []bool, ok bool) {
	for _, oi := range items {
		ci := -1
		if id, isID := oi.Expr.(*ast.Ident); isID {
			ci = ds.ColIndex(id.Table, id.Name)
		}
		if lit, isLit := oi.Expr.(*ast.Literal); isLit && lit.Val.Typ == value.Int {
			pos := int(lit.Val.I) - 1
			if pos >= 0 && pos < ds.NumCols() {
				ci = pos
			}
		}
		if ci < 0 {
			return nil, nil, false
		}
		cols = append(cols, ci)
		desc = append(desc, oi.Desc)
	}
	return cols, desc, true
}

// finishSelectSorted applies DISTINCT, ORDER BY (unless the rows are
// already sorted) and LIMIT.
func (e *Engine) finishSelectSorted(sel *ast.Select, out *Dataset, outer expr.Env, sorted bool) (*Dataset, error) {
	pf := e.prof
	var t0 time.Time
	if sel.Distinct {
		if pf != nil {
			t0 = time.Now()
			pf.Distinct.RowsIn.Add(int64(out.NumRows()))
		}
		var err error
		if out, err = e.dedupe(out); err != nil {
			return nil, err
		}
		if pf != nil {
			pf.Distinct.AddNanos(time.Since(t0))
			pf.Distinct.RowsOut.Add(int64(out.NumRows()))
			pf.Distinct.RowBatches.Add(1)
		}
	}
	if len(sel.OrderBy) > 0 && !sorted {
		cols, desc, ok := resolveOrderCols(sel.OrderBy, out)
		if !ok {
			return nil, fmt.Errorf("ORDER BY expression must name an output column")
		}
		if pf != nil {
			t0 = time.Now()
		}
		out.SortBy(cols, desc)
		if pf != nil {
			pf.Sort.AddNanos(time.Since(t0))
			pf.Sort.RowsIn.Add(int64(out.NumRows()))
			pf.Sort.RowsOut.Add(int64(out.NumRows()))
			pf.Sort.RowBatches.Add(1)
		}
	}
	if sel.Limit != nil {
		lv, err := e.Ev.Eval(sel.Limit, outer)
		if err != nil {
			return nil, err
		}
		n := int(lv.AsInt())
		if pf != nil {
			pf.Limit.RowsIn.Add(int64(out.NumRows()))
		}
		if n < out.NumRows() {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			out = out.Gather(idx)
		}
		if pf != nil {
			pf.Limit.RowsOut.Add(int64(out.NumRows()))
			pf.Limit.RowBatches.Add(1)
		}
	}
	return out, nil
}

// fromIsVacuous reports whether the FROM arrays are referenced only
// through explicit array references (d[x/2][y].v), in which case the
// paper's examples intend the free dimension variables to bind to the
// *outer* statement (UPDATE target cells) and no scan is needed.
func (e *Engine) fromIsVacuous(sel *ast.Select, outer expr.Env) bool {
	if sel.Where != nil || sel.GroupBy != nil || sel.Having != nil || sel.Distinct ||
		len(sel.OrderBy) > 0 || sel.Limit != nil {
		return false
	}
	names := map[string]bool{}
	for _, fi := range sel.From {
		tr, ok := fi.(*ast.TableRef)
		if !ok || tr.Subquery != nil || tr.Alias != "" || len(tr.Indexers) > 0 {
			return false
		}
		if _, ok := e.cat().Array(tr.Name); !ok {
			if v, ok2 := outer.Lookup("", tr.Name); !ok2 || v.Typ != value.Array {
				return false
			}
		}
		names[strings.ToLower(tr.Name)] = true
	}
	usedAsBase := map[string]bool{}
	for _, it := range sel.Items {
		if _, ok := it.Expr.(*ast.Star); ok {
			return false
		}
		if ast.HasAggregate(it.Expr) {
			return false
		}
		if exprMentionsSourceOutsideRef(it.Expr, names) {
			return false
		}
		ast.Walk(it.Expr, func(n ast.Expr) bool {
			if ref, ok := n.(*ast.ArrayRef); ok {
				if id, ok2 := ref.Base.(*ast.Ident); ok2 {
					usedAsBase[strings.ToLower(id.Name)] = true
				}
			}
			return true
		})
	}
	// Every FROM array must actually be addressed through an ArrayRef;
	// otherwise this is a genuine scan.
	for n := range names {
		if !usedAsBase[n] {
			return false
		}
	}
	return true
}

// exprMentionsSourceOutsideRef reports whether any bare identifier
// names or qualifies by one of the FROM sources outside an ArrayRef
// base position.
func exprMentionsSourceOutsideRef(x ast.Expr, names map[string]bool) bool {
	bad := false
	var walk func(ast.Expr)
	walk = func(n ast.Expr) {
		if n == nil || bad {
			return
		}
		switch t := n.(type) {
		case *ast.Ident:
			if names[strings.ToLower(t.Name)] || names[strings.ToLower(t.Table)] {
				bad = true
			}
		case *ast.ArrayRef:
			// The base ident is the sanctioned mention; indexer
			// expressions and nested bases are still checked.
			if _, ok := t.Base.(*ast.Ident); !ok {
				walk(t.Base)
			}
			for _, ix := range t.Indexers {
				walk(ix.Point)
				walk(ix.Start)
				walk(ix.Stop)
				walk(ix.Step)
			}
		case *ast.Unary:
			walk(t.X)
		case *ast.Binary:
			walk(t.L)
			walk(t.R)
		case *ast.FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case *ast.Case:
			walk(t.Operand)
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(t.Else)
		case *ast.Cast:
			walk(t.X)
		case *ast.IsNull:
			walk(t.X)
		case *ast.Between:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *ast.InList:
			walk(t.X)
			for _, el := range t.Elems {
				walk(el)
			}
		case *ast.Subquery:
			bad = true // conservatively scan
		case *ast.ExprList:
			for _, el := range t.Elems {
				walk(el)
			}
		}
	}
	walk(x)
	return bad
}

// projectRowless evaluates the target list once under the outer
// environment; single array-valued results expand into a dataset so
// SELECT matrix[0:2][0:2].v lists cells.
func (e *Engine) projectRowless(sel *ast.Select, outer expr.Env) (*Dataset, error) {
	vals := make([]value.Value, 0, len(sel.Items))
	names := make([]string, 0, len(sel.Items))
	dims := make([]bool, 0, len(sel.Items))
	for i, it := range sel.Items {
		if it.Expr == nil {
			return nil, fmt.Errorf("empty select item")
		}
		if lit, ok := it.Expr.(*ast.ArrayLit); ok {
			arr, err := e.buildArrayLit(lit, outer)
			if err != nil {
				return nil, err
			}
			vals = append(vals, value.NewArray(arr))
			names = append(names, itemName(it, i))
			dims = append(dims, it.DimQual)
			continue
		}
		v, err := e.Ev.Eval(it.Expr, outer)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		names = append(names, itemName(it, i))
		dims = append(dims, it.DimQual)
	}
	// A single array value expands into its cell listing.
	if len(vals) == 1 && vals[0].Typ == value.Array && !vals[0].Null {
		if a, ok := vals[0].A.(*array.Array); ok {
			return e.scanArrayPruned(a, a.Name, nil, nil, nil, 1, nil)
		}
	}
	cols := make([]Col, len(vals))
	for i := range vals {
		cols[i] = Col{Name: names[i], Typ: vals[i].Typ, IsDim: dims[i]}
	}
	out := NewDataset(cols)
	out.Append(vals)
	return out, nil
}

// buildArrayLit materializes SELECT ARRAY(...) literals with implicit
// integer dimensions (§4.1).
func (e *Engine) buildArrayLit(lit *ast.ArrayLit, env expr.Env) (*array.Array, error) {
	rows := len(lit.Rows)
	colsN := 0
	for _, r := range lit.Rows {
		if len(r) > colsN {
			colsN = len(r)
		}
	}
	var sch array.Schema
	if rows == 1 {
		sch.Dims = []array.Dimension{{Name: "x", Typ: value.Int, Start: 0, End: int64(colsN), Step: 1}}
	} else {
		sch.Dims = []array.Dimension{
			{Name: "x", Typ: value.Int, Start: 0, End: int64(rows), Step: 1},
			{Name: "y", Typ: value.Int, Start: 0, End: int64(colsN), Step: 1},
		}
	}
	sch.Attrs = []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}}
	st, err := e.newStore("array_literal", sch)
	if err != nil {
		return nil, err
	}
	a := &array.Array{Name: "array", Schema: sch, Store: st}
	for ri, row := range lit.Rows {
		for ci, cell := range row {
			v, err := e.Ev.Eval(cell, env)
			if err != nil {
				return nil, err
			}
			coords := []int64{int64(ci)}
			if rows > 1 {
				coords = []int64{int64(ri), int64(ci)}
			}
			if err := st.Set(coords, 0, v); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

func itemName(it ast.SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch x := it.Expr.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.FuncCall:
		return strings.ToLower(x.Name)
	case *ast.ArrayRef:
		if x.Attr != "" {
			return x.Attr
		}
		if id, ok := x.Base.(*ast.Ident); ok {
			return id.Name
		}
	}
	return fmt.Sprintf("col%d", pos+1)
}

// --- FROM ------------------------------------------------------------------

// splitConjuncts flattens an AND tree.
func splitConjuncts(where ast.Expr) []ast.Expr {
	if where == nil {
		return nil
	}
	if b, ok := where.(*ast.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []ast.Expr{where}
}

// unconsumed lists the conjuncts dimension pushdown left to the filter.
func unconsumed(conjs []ast.Expr, consumed []bool) []ast.Expr {
	var out []ast.Expr
	for i, c := range conjs {
		if !consumed[i] {
			out = append(out, c)
		}
	}
	return out
}

// buildFrom scans and joins the FROM items, pushing dimension
// equality/range conjuncts into array scans (the "symbolic reasoning
// over the dimensions" of §2.3). It returns the joined dataset, the
// source descriptors, and the conjuncts not fully consumed.
func (e *Engine) buildFrom(items []ast.FromItem, conjs []ast.Expr, outer expr.Env, dec planDecision) (*Dataset, []*source, []ast.Expr, error) {
	var ds *Dataset
	var sources []*source
	consumed := make([]bool, len(conjs))
	// With a single source, unqualified WHERE identifiers bind to it,
	// so bare conjuncts are trusted for zone-map skipping; join shapes
	// trust only qualified ones.
	bare := len(items) == 1
	for _, fi := range items {
		d, srcs, err := e.buildFromItem(fi, conjs, consumed, outer, dec, bare)
		if err != nil {
			return nil, nil, nil, err
		}
		sources = append(sources, srcs...)
		if ds == nil {
			ds = d
		} else {
			ds = crossJoin(ds, d)
		}
	}
	return ds, sources, unconsumed(conjs, consumed), nil
}

func (e *Engine) buildFromItem(fi ast.FromItem, conjs []ast.Expr, consumed []bool, outer expr.Env, dec planDecision, bare bool) (*Dataset, []*source, error) {
	switch t := fi.(type) {
	case *ast.TableRef:
		return e.buildTableRef(t, conjs, consumed, outer, dec, bare)
	case *ast.Join:
		left, ls, err := e.buildFromItem(t.Left, conjs, consumed, outer, dec, false)
		if err != nil {
			return nil, nil, err
		}
		right, rs, err := e.buildFromItem(t.Right, conjs, consumed, outer, dec, false)
		if err != nil {
			return nil, nil, err
		}
		joined, err := e.join(left, right, t, outer, dec.par)
		if err != nil {
			return nil, nil, err
		}
		return joined, append(ls, rs...), nil
	}
	return nil, nil, fmt.Errorf("unsupported FROM item %T", fi)
}

func (e *Engine) buildTableRef(t *ast.TableRef, conjs []ast.Expr, consumed []bool, outer expr.Env, dec planDecision, bare bool) (*Dataset, []*source, error) {
	if t.Subquery != nil {
		ds, err := e.execSelect(t.Subquery, outer)
		if err != nil {
			return nil, nil, err
		}
		qual := t.Alias
		for i := range ds.Cols {
			ds.Cols[i].Qual = qual
		}
		return ds, []*source{{name: t.Alias, alias: t.Alias}}, nil
	}
	// Array from the environment (PSM array parameters) or catalog.
	var arr *array.Array
	fromEnv := false
	if v, ok := outer.Lookup("", t.Name); ok && v.Typ == value.Array && !v.Null {
		arr, _ = v.A.(*array.Array)
		fromEnv = arr != nil
	}
	if arr == nil {
		if a, ok := e.cat().Array(t.Name); ok {
			arr = a
		}
	}
	if arr != nil {
		src := &source{name: t.Name, alias: t.Alias, arr: arr}
		var sels []dimSel
		if len(t.Indexers) > 0 {
			s, err := e.resolveIndexers(arr, t.Indexers, outer)
			if err != nil {
				return nil, nil, err
			}
			sels = s
		}
		src.sels = sels
		restrict := e.pushdownDims(arr, src.qual(), conjs, consumed, sels, outer)
		// The pruned projection was planned against the catalog schema;
		// an environment-bound array shadowing a catalog name may carry
		// attributes the planner never saw, so it scans unpruned.
		var attrs []int
		if !fromEnv {
			attrs = dec.scanAttrs(arr, t.Name)
		}
		// Zone-map skipping compiles against the conjuncts not consumed
		// by dimension pushdown; they stay in the residual filter, so
		// skipping only removes chunks that could not contribute rows.
		sk := e.buildChunkSkipper(arr, src.qual(), effectiveSels(arr, sels, restrict), unconsumed(conjs, consumed), bare)
		ds, err := e.scanArrayPruned(arr, src.qual(), sels, restrict, attrs, dec.par, sk)
		if err != nil {
			return nil, nil, err
		}
		return ds, []*source{src}, nil
	}
	if tbl, ok := e.cat().Table(t.Name); ok {
		qual := t.Alias
		if qual == "" {
			qual = t.Name
		}
		cols := make([]Col, len(tbl.Cols))
		vecs := make([]bat.Vector, len(tbl.Cols))
		for i, c := range tbl.Cols {
			cols[i] = Col{Name: c.Name, Qual: qual, Typ: c.Typ}
			vecs[i] = tbl.Vecs[i].Clone()
		}
		return &Dataset{Cols: cols, Vecs: vecs}, []*source{{name: t.Name, alias: t.Alias}}, nil
	}
	return nil, nil, fmt.Errorf("no such table or array %s", t.Name)
}

// pushdownDims extracts per-dimension point/range restrictions from
// WHERE conjuncts of the form <dim> op <outer-constant>, marking the
// consumed conjuncts. Classification and consumption policy are
// plan.AnalyzeDimConjuncts — the same implementation the planner uses
// for EXPLAIN annotations — so the plan can never drift from what the
// scan applies. The executor's ConstEval additionally handles host
// parameters and outer-bound constants the planner cannot evaluate,
// and sels marks dimensions already restricted by FROM-clause slicing
// (left to the filter, matching the planner's decision).
func (e *Engine) pushdownDims(a *array.Array, qual string, conjs []ast.Expr, consumed []bool, sels []dimSel, outer expr.Env) map[int]dimSel {
	resolve := func(id *ast.Ident) int {
		if id.Table != "" && !strings.EqualFold(id.Table, qual) {
			return -1
		}
		return dimIndexFold(a, id.Name)
	}
	eval := func(x ast.Expr) (int64, bool) {
		if !e.constUnderOuter(x, a, qual, outer) {
			return 0, false
		}
		v, err := e.Ev.Eval(x, outer)
		// Only exactly integral values may become scan bounds:
		// truncating a float here would move the bound and drop rows.
		if err != nil || v.Null || (v.Typ != value.Int && v.Typ != value.Timestamp) {
			return 0, false
		}
		return v.AsInt(), true
	}
	blocked := func(di int) bool { return sels != nil && !sels[di].full }
	restrict, cons := plan.AnalyzeDimConjuncts(conjs, resolve, eval, blocked)
	out := make(map[int]dimSel)
	for di, r := range restrict {
		// Predicate-derived restrictions carry no stride (step 1): a
		// WHERE bound is a pure range, and anchoring the dimension's
		// grid step at an arbitrary bound would reject on-grid cells.
		switch {
		case r.Point:
			out[di] = dimSel{point: true, val: r.Val, step: 1}
		case r.HasLo || r.HasHi:
			lo, hi := r.Lo, r.Hi
			if !r.HasLo || !r.HasHi {
				blo, bhi, err := a.BoundingBox()
				if err != nil {
					// No bounding box to close the open end: leave the
					// conjuncts in the filter instead of restricting.
					for _, rc := range r.RangeConjs {
						for i, c := range conjs {
							if c == rc {
								cons[i] = false
							}
						}
					}
					continue
				}
				if !r.HasLo {
					lo = blo[di]
				}
				if !r.HasHi {
					hi = bhi[di] + 1
				}
			}
			out[di] = dimSel{lo: lo, hi: hi, step: 1}
		}
	}
	for i := range conjs {
		if cons[i] {
			consumed[i] = true
		}
	}
	return out
}

func dimIndexFold(a *array.Array, name string) int {
	for i, d := range a.Schema.Dims {
		if strings.EqualFold(d.Name, name) {
			return i
		}
	}
	return -1
}

// constUnderOuter reports whether x can be evaluated with only the
// outer environment (no references to the scanned array's columns).
func (e *Engine) constUnderOuter(x ast.Expr, a *array.Array, qual string, outer expr.Env) bool {
	ok := true
	ast.Walk(x, func(n ast.Expr) bool {
		switch t := n.(type) {
		case *ast.Ident:
			if t.Table != "" && strings.EqualFold(t.Table, qual) {
				ok = false
				return false
			}
			if t.Table == "" {
				// A bare name that belongs to this array's schema and
				// is not outer-bound refers to the scan.
				if _, bound := outer.Lookup("", t.Name); !bound {
					if dimIndexFold(a, t.Name) >= 0 || attrIndexFold(a, t.Name) >= 0 {
						ok = false
						return false
					}
				}
			} else {
				// Qualified by something else: must resolve outer.
				if _, bound := outer.Lookup(t.Table, t.Name); !bound {
					ok = false
					return false
				}
			}
		case *ast.Subquery:
			ok = false
			return false
		}
		return true
	})
	return ok
}

func attrIndexFold(a *array.Array, name string) int {
	for i, at := range a.Schema.Attrs {
		if strings.EqualFold(at.Name, name) {
			return i
		}
	}
	return -1
}

// scanCols builds the dataset column header of an array scan: the
// dimension columns (IsDim) followed by the attribute columns.
func scanCols(a *array.Array, qual string) []Col {
	return scanColsPruned(a, qual, nil)
}

// scanColsPruned is scanCols restricted to the attribute positions in
// attrs (nil keeps every attribute; an empty slice keeps none — a
// dimensions-only scan).
func scanColsPruned(a *array.Array, qual string, attrs []int) []Col {
	nd := len(a.Schema.Dims)
	attrs = array.AllAttrs(attrs, len(a.Schema.Attrs))
	cols := make([]Col, 0, nd+len(attrs))
	for _, d := range a.Schema.Dims {
		cols = append(cols, Col{Name: d.Name, Qual: qual, Typ: d.Typ, IsDim: true})
	}
	for _, ai := range attrs {
		at := a.Schema.Attrs[ai]
		cols = append(cols, Col{Name: at.Name, Qual: qual, Typ: at.Typ})
	}
	return cols
}

// effectiveSels intersects FROM slicing with pushed-down restrictions
// into one per-dimension constraint vector.
func effectiveSels(a *array.Array, sels []dimSel, restrict map[int]dimSel) []dimSel {
	eff := make([]dimSel, len(a.Schema.Dims))
	for i := range eff {
		eff[i] = dimSel{full: true}
		if sels != nil {
			eff[i] = sels[i]
		}
		if r, ok := restrict[i]; ok {
			eff[i] = intersectSel(eff[i], r)
		}
	}
	return eff
}

// selContains reports whether one dimension selection admits index
// value v: a point admits only its value; a full selection ([*] or an
// unindexed dimension) never rejects; ranges are half-open and
// stride-aware — [lo:hi:step] admits lo, lo+step, ... just like the
// same slice in expression position. Sparse (order-only) dimensions
// carry no grid, so their ranges admit any in-range coordinate.
func selContains(s dimSel, v int64) bool {
	if s.point {
		return v == s.val
	}
	if s.full {
		return true
	}
	if v < s.lo || v >= s.hi {
		return false
	}
	if s.step > 1 && !s.sparse && (v-s.lo)%s.step != 0 {
		return false
	}
	return true
}

// scanArrayPruned materializes an array as a dataset of dimension
// columns (IsDim) and the attribute columns selected by attrs (the
// optimizer's pruned scan projection; nil keeps all), skipping holes
// (§3.1). sels (FROM slicing) and restrict (pushed-down predicates)
// bound the scan; when every dimension is pinned to a point the scan
// is a direct cell read, anything else concatenates the store's column
// batches (materializeScan).
func (e *Engine) scanArrayPruned(a *array.Array, qual string, sels []dimSel, restrict map[int]dimSel, attrs []int, par int, sk *chunkSkipper) (*Dataset, error) {
	// Effective per-dim constraint = intersection of sels and restrict.
	src := &scanSource{arr: a, cols: scanColsPruned(a, qual, attrs), attrs: attrs, eff: effectiveSels(a, sels, restrict), skip: sk, prof: e.prof, budget: e.budget}
	if allPoint(src.eff) {
		return readPoint(src), nil
	}
	return e.materializeScan(src, par)
}

// readPoint reads the one cell an all-point restriction addresses, as a
// dataset over src.cols: one row, or none when the coordinates are out
// of bounds or the cell is a hole.
func readPoint(src *scanSource) *Dataset {
	a := src.arr
	out := NewDataset(src.cols)
	coords := make([]int64, len(src.eff))
	for i := range src.eff {
		coords[i] = src.eff[i].val
	}
	if !a.ValidCoords(coords) {
		return out
	}
	// Liveness is judged on every attribute — a cell whose selected
	// attributes are NULL is still live (not a hole) when an unselected
	// one is set.
	na := len(a.Schema.Attrs)
	all := make([]value.Value, na)
	hole := true
	for ai := range all {
		all[ai] = a.Store.Get(coords, ai)
		hole = hole && all[ai].Null
	}
	if hole {
		return out
	}
	for i, c := range coords {
		out.Vecs[i].Append(value.Value{Typ: a.Schema.Dims[i].Typ, I: c})
	}
	for vi, ai := range array.AllAttrs(src.attrs, na) {
		out.Vecs[len(coords)+vi].Append(all[ai])
	}
	return out
}

// allPoint reports whether eff pins every dimension to a point: the
// scan is then a single cell read, which keeps its exact hole
// semantics on the direct-read path instead of going through chunks.
func allPoint(eff []dimSel) bool {
	for i := range eff {
		if !eff[i].point {
			return false
		}
	}
	return len(eff) > 0
}

// emptySel is a selection no coordinate satisfies.
func emptySel() dimSel { return dimSel{lo: 0, hi: 0, step: 1} }

// selEmpty reports whether a selection can be proven to admit nothing.
func selEmpty(s dimSel) bool { return !s.point && !s.full && s.lo >= s.hi }

// effProvablyEmpty reports whether any dimension's effective selection
// admits nothing — a disjoint slice ∩ predicate intersection — so the
// scan can skip the store walk entirely.
func effProvablyEmpty(eff []dimSel) bool {
	for i := range eff {
		if selEmpty(eff[i]) {
			return true
		}
	}
	return false
}

// intersectSel combines two selections of one dimension (FROM-clause
// slicing ∩ pushed-down predicate). Disjoint operands yield an empty
// selection — a point outside the other operand's range must select
// nothing, not the point. Stepped ranges intersect phase-aware: the
// result's stride is the lcm of the strides, anchored at the first
// common element (empty when the progressions never meet).
func intersectSel(a, b dimSel) dimSel {
	if a.point {
		if selContains(b, a.val) {
			return a
		}
		return emptySel()
	}
	if b.point {
		if selContains(a, b.val) {
			return b
		}
		return emptySel()
	}
	if a.full {
		return b
	}
	if b.full {
		return a
	}
	lo, hi := a.lo, a.hi
	if b.lo > lo {
		lo = b.lo
	}
	if b.hi < hi {
		hi = b.hi
	}
	if lo >= hi {
		return emptySel()
	}
	out := dimSel{lo: lo, hi: hi, step: 1, sparse: a.sparse || b.sparse}
	sa, sb := selStep(a), selStep(b)
	if out.sparse || (sa == 1 && sb == 1) {
		return out
	}
	g := gcd64(sa, sb)
	if ((a.lo-b.lo)%g+g)%g != 0 {
		return emptySel() // phases never coincide
	}
	// First element of a's progression at or above lo, then walk until
	// the phase also matches b's (the pattern repeats after sb/g steps).
	x := a.lo + (lo-a.lo+sa-1)/sa*sa
	for i := int64(0); i < sb/g; i++ {
		if x >= hi {
			return emptySel()
		}
		if (x-b.lo)%sb == 0 {
			out.lo, out.step = x, sa/g*sb
			return out
		}
		x += sa
	}
	return emptySel()
}

func selStep(s dimSel) int64 {
	if s.step <= 0 {
		return 1
	}
	return s.step
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// crossJoin forms the Cartesian product (comma joins; WHERE conjuncts
// filter afterwards) as typed gathers of the two inputs' columns.
func crossJoin(l, r *Dataset) *Dataset {
	ln, rn := l.NumRows(), r.NumRows()
	li, ri := make([]int, 0, ln*rn), make([]int, 0, ln*rn)
	for i := 0; i < ln; i++ {
		for j := 0; j < rn; j++ {
			li, ri = append(li, i), append(ri, j)
		}
	}
	out := &Dataset{Cols: append(append([]Col(nil), l.Cols...), r.Cols...)}
	out.Vecs = append(l.Gather(li).Vecs, r.Gather(ri).Vecs...)
	return out
}

// scalarSubquery is the evaluator hook for subqueries in expression
// position: it returns the first column of the first row (NULL when
// the result is empty).
func (e *Engine) scalarSubquery(sel *ast.Select, env expr.Env) (value.Value, error) {
	ds, err := e.execSelect(sel, env)
	if err != nil {
		return value.Value{}, err
	}
	if ds.NumRows() == 0 || ds.NumCols() == 0 {
		return value.NewNull(value.Unknown), nil
	}
	return ds.Get(0, 0), nil
}
