package exec

import (
	"slices"
	"strings"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// parallelMorsel aliases the pool's chunk descriptor.
type parallelMorsel = parallel.Morsel

// This file is the bridge between the logical planner and the
// morsel-driven executor in internal/parallel. A SELECT takes the
// parallel path only when (a) the engine's parallelism knob is above
// one, (b) the optimized plan has a parallelizable shape (single
// array/table pipeline — plan.Plan.Parallel), and (c) every scalar
// expression is engine-state free, so concurrent evaluation on the
// shared Evaluator is race-free. Everything else falls back to the
// serial interpreter, transparently.

// planCacheMax bounds the eligibility cache; ad-hoc statements parse
// into fresh AST nodes, so a long-lived engine would otherwise grow
// the cache without limit.
const planCacheMax = 4096

// selectDecision plans one SELECT's routing: the worker count (the
// configured parallelism when the optimized plan shape and the
// expressions qualify, otherwise 1) and the optimizer's pruned scan
// projections, which the scan applies at any parallelism. The decision
// is memoized per AST node (re-executed prepared statements and
// per-row correlated subqueries reuse one node). On the parallel path
// it also pre-warms lazily built store indexes (sorted dimension
// values, bounding boxes) — on every execution, since DML invalidates
// them — so workers only ever read shared state.
func (e *Engine) selectDecision(sel *ast.Select) planDecision {
	ver := e.cat().SchemaVersion()
	e.planMu.Lock()
	dec, cached := e.planCache[sel]
	e.planMu.Unlock()
	if !cached || dec.catVer != ver {
		// Not cached, or planned under a different catalog version
		// (DDL committed by any session, or this session's pinned
		// transaction snapshot): re-resolve against the current view
		// instead of executing stale bindings.
		e.metrics().planMiss.Inc()
		dec = planDecision{par: 1, catVer: ver}
		pl := e.planSelect(sel)
		if e.parallelism > 1 && e.pool != nil && pl.Parallel && parSafeSelect(sel) {
			dec.par = e.parallelism
			dec.warm = warmNames(sel)
		}
		dec.scans = prunedScanAttrs(pl)
		e.planMu.Lock()
		if len(e.planCache) >= planCacheMax || e.planCache == nil {
			e.planCache = make(map[*ast.Select]planDecision)
		}
		e.planCache[sel] = dec
		e.planMu.Unlock()
	} else {
		e.metrics().planHit.Inc()
	}
	// Prewarm on every execution (not just the first): DML between
	// executions invalidates the lazy store indexes. The name list is
	// cached; re-touching a built index is a cheap early return.
	for _, name := range dec.warm {
		if a, ok := e.cat().Array(name); ok {
			e.prewarmArray(a)
		}
	}
	return dec
}

// PrimePlan resolves (and memoizes) the routing decision for sel
// without executing it. The public layer calls it to time the planning
// phase for trace hooks; the decision is cached per AST node, so the
// following execution does not plan twice.
func (e *Engine) PrimePlan(sel *ast.Select) {
	e.selectDecision(sel)
}

// prunedScanAttrs collects the optimizer's projection pruning per
// scanned array. Two scans of one array carry identical projections
// (pruning is computed from the statement's global reference set), so
// the first wins.
func prunedScanAttrs(pl *plan.Plan) map[string][]string {
	var out map[string][]string
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok && !sc.Table && !sc.AllAttrs {
			if out == nil {
				out = make(map[string][]string)
			}
			key := strings.ToLower(sc.Name)
			if _, seen := out[key]; !seen {
				out[key] = sc.Attrs
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pl.Root)
	return out
}

// parSafeSelect reports whether every scalar expression of the select
// (and its UNION continuations) can be evaluated concurrently.
func parSafeSelect(sel *ast.Select) bool {
	for cur := sel; cur != nil; cur = cur.SetRight {
		exprs := make([]ast.Expr, 0, 8)
		for _, it := range cur.Items {
			exprs = append(exprs, it.Expr)
		}
		for _, fi := range cur.From {
			if !collectFromExprs(fi, &exprs) {
				return false
			}
		}
		exprs = append(exprs, cur.Where, cur.Having, cur.Limit)
		if cur.GroupBy != nil {
			exprs = append(exprs, cur.GroupBy.Exprs...)
			for _, t := range cur.GroupBy.Tiles {
				exprs = append(exprs, t.Ref)
			}
		}
		for _, oi := range cur.OrderBy {
			exprs = append(exprs, oi.Expr)
		}
		for _, x := range exprs {
			if !parSafeExpr(x) {
				return false
			}
		}
	}
	return true
}

// collectFromExprs gathers the scalar expressions of one FROM item
// (slice indexers, join ON conditions) for the parallel-safety vet,
// recursing through JOIN trees. False means the item's shape itself
// cannot run parallel (derived tables re-enter the engine).
func collectFromExprs(fi ast.FromItem, exprs *[]ast.Expr) bool {
	switch t := fi.(type) {
	case *ast.TableRef:
		if t.Subquery != nil {
			return false
		}
		for _, ix := range t.Indexers {
			*exprs = append(*exprs, ix.Point, ix.Start, ix.Stop, ix.Step)
		}
		return true
	case *ast.Join:
		*exprs = append(*exprs, t.On)
		return collectFromExprs(t.Left, exprs) && collectFromExprs(t.Right, exprs)
	}
	return false
}

// parSafeExpr vets one expression for concurrent evaluation: no
// subqueries (recursive engine execution), no UDF calls (white-box PSM
// bodies may contain DML; black-box Go functions have unknown thread
// safety), no RAND (the evaluator's generator is shared and lazily
// initialized), no NEXT (rewritten via dataset mutation).
func parSafeExpr(x ast.Expr) bool {
	ok := true
	ast.Walk(x, func(n ast.Expr) bool {
		switch t := n.(type) {
		case *ast.Subquery:
			ok = false
			return false
		case *ast.FuncCall:
			if t.IsAggregate() {
				return true
			}
			if strings.EqualFold(t.Name, "RAND") || strings.EqualFold(t.Name, "NEXT") || !expr.IsBuiltin(t.Name) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// warmNames collects the names of every array the query mentions
// (FROM sources and ArrayRef bases); their lazily built read-side
// indexes are touched before each parallel execution so worker
// goroutines only ever read shared state.
func warmNames(sel *ast.Select) []string {
	names := make(map[string]bool)
	var visit func(x ast.Expr)
	visit = func(x ast.Expr) {
		ast.Walk(x, func(n ast.Expr) bool {
			if ref, ok := n.(*ast.ArrayRef); ok {
				if id, ok2 := ref.Base.(*ast.Ident); ok2 {
					names[strings.ToLower(id.Name)] = true
				}
			}
			return true
		})
	}
	var addFrom func(fi ast.FromItem)
	addFrom = func(fi ast.FromItem) {
		switch t := fi.(type) {
		case *ast.TableRef:
			names[strings.ToLower(t.Name)] = true
		case *ast.Join:
			addFrom(t.Left)
			addFrom(t.Right)
			visit(t.On)
		}
	}
	for cur := sel; cur != nil; cur = cur.SetRight {
		for _, fi := range cur.From {
			addFrom(fi)
		}
		for _, it := range cur.Items {
			visit(it.Expr)
		}
		visit(cur.Where)
		visit(cur.Having)
		if cur.GroupBy != nil {
			for _, t := range cur.GroupBy.Tiles {
				visit(t.Ref)
			}
			for _, k := range cur.GroupBy.Exprs {
				visit(k)
			}
		}
	}
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	return out
}

func (e *Engine) prewarmArray(a *array.Array) {
	if p, ok := a.Store.(dimValuesProvider); ok {
		for di := range a.Schema.Dims {
			_ = p.DimValues(di)
		}
	}
	_, _, _ = a.BoundingBox()
}

// morselFor is the morsel size forEachMorsel cuts an n-element domain
// into.
func (e *Engine) morselFor(n int) int {
	if e.pool == nil {
		return parallel.DefaultMorsel
	}
	return e.pool.MorselFor(n)
}

// forEachMorsel runs fn over the morsels of [0, n): across the pool
// when the statement runs parallel and the domain is worth sharing out,
// otherwise in order on the calling goroutine — a pool of one — with
// the statement context polled between morsels either way.
func (e *Engine) forEachMorsel(par, n int, fn func(m parallelMorsel) error) error {
	morsel := e.morselFor(n)
	if par > 1 && e.pool != nil && n >= 2*e.pool.Workers() {
		return e.pool.ForEachCtx(e.ctx(), n, morsel, fn)
	}
	for lo := 0; lo < n; lo += morsel {
		if err := e.canceled(); err != nil {
			return err
		}
		if err := fn(parallelMorsel{Lo: lo, Hi: min(lo+morsel, n)}); err != nil {
			return err
		}
	}
	return nil
}

// filterKeep evaluates where over every row of ds and returns the
// indexes of passing rows in order, morsel by morsel (forEachMorsel):
// through the compiled predicate when it compiles into bulk kernels —
// one batch per morsel, producing the same indexes the interpreter
// would — row by row otherwise.
func (e *Engine) filterKeep(where ast.Expr, ds *Dataset, outer expr.Env, par int) ([]int, error) {
	n := ds.NumRows()
	prog := e.vecCompile(where, ds.Cols, true)
	if prog != nil && !prog.validFor(ds.Vecs) {
		prog = nil
	}
	morsel := e.morselFor(n)
	parts := make([][]int, (n+morsel-1)/morsel)
	err := e.forEachMorsel(par, n, func(m parallelMorsel) error {
		var keep []int
		if prog != nil {
			for _, rel := range prog.filterSel(ds.Vecs, m.Lo, m.Hi) {
				keep = append(keep, m.Lo+rel)
			}
		} else {
			env := &rowEnv{d: ds, outer: outer}
			for env.row = m.Lo; env.row < m.Hi; env.row++ {
				ok, err := e.Ev.EvalBool(where, env)
				if err != nil {
					return err
				}
				if ok {
					keep = append(keep, env.row)
				}
			}
		}
		parts[m.Lo/morsel] = keep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(parts...), nil
}

// projectWith evaluates the target list for every row of ds, morsel by
// morsel (forEachMorsel); the output is the same for any par. Items
// whose expressions compile into bulk kernels evaluate
// column-at-a-time, one batch per morsel; the rest go through the row
// interpreter, per item.
func (e *Engine) projectWith(items []ast.SelectItem, ds *Dataset, outer expr.Env, par int) (*Dataset, error) {
	items = expandStars(items, ds.Cols)
	n := ds.NumRows()
	progs := make([]*vecProg, len(items))
	colVals := make([][]value.Value, len(items))
	allVec := true
	for i, it := range items {
		if p := e.vecCompile(it.Expr, ds.Cols, true); p != nil && p.validFor(ds.Vecs) {
			progs[i] = p
		} else {
			colVals[i] = make([]value.Value, n)
			allVec = false
		}
	}
	morsel := e.morselFor(n)
	vparts := make([][]bat.Vector, (n+morsel-1)/morsel)
	err := e.forEachMorsel(par, n, func(m parallelMorsel) error {
		// Morsels are batch sized, so each compiled item evaluates in one
		// kernel call; the single element copy happens at the ordered
		// merge below.
		part := make([]bat.Vector, len(items))
		for i, p := range progs {
			if p != nil {
				part[i] = p.eval(ds.Vecs, m.Lo, m.Hi)
			}
		}
		vparts[m.Lo/morsel] = part
		if allVec {
			return nil
		}
		env := &rowEnv{d: ds, outer: outer}
		for env.row = m.Lo; env.row < m.Hi; env.row++ {
			for i, it := range items {
				if progs[i] != nil {
					continue
				}
				v, err := e.Ev.Eval(it.Expr, env)
				if err != nil {
					return err
				}
				colVals[i][env.row] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cols := make([]Col, len(items))
	vecs := make([]bat.Vector, len(items))
	for i, it := range items {
		if p := progs[i]; p != nil {
			acc := bat.New(p.typ, n)
			for _, part := range vparts {
				acc = bat.Concat(acc, part[i])
			}
			vecs[i], cols[i].Typ = finalizeVecOutput(acc)
		} else {
			cols[i].Typ = promoteType(colVals[i])
			vecs[i] = bat.FromValues(cols[i].Typ, colVals[i])
		}
		cols[i].Name, cols[i].IsDim = itemName(it, i), it.DimQual
		if id, ok := it.Expr.(*ast.Ident); ok {
			cols[i].Qual = id.Table
		}
	}
	return &Dataset{Cols: cols, Vecs: vecs}, nil
}
