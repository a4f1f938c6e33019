package exec

import (
	"context"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// This file is the pull/iterator execution path behind the public
// streaming API (sciql.Rows, the database/sql driver). A SELECT whose
// shape qualifies — a single catalog-array pipeline of scan → filter →
// project (+ LIMIT), engine-state-free expressions — yields rows as
// they are produced instead of materializing the whole result. The
// scan's column batches (scan.go) run through the filter and the
// projection one batch at a time, as compiled kernels when every
// expression vectorizes and row by row out of the batch otherwise:
//
//   - serially, inside a coroutine (iter.Pull) that suspends after each
//     batch, so a LIMIT stops the store walk mid-chunk;
//   - in parallel, the morsel pool processes whole chunks and the
//     consumer re-orders their outputs by chunk ordinal, so iteration
//     order (and results) are identical to the serial path; workers
//     honor ctx.Done() between batches, so cancellation actually stops
//     long scans.
//
// Everything else — tiling, joins, ORDER BY, DISTINCT, set operations —
// executes through the materializing interpreter and is served from
// the completed dataset through the same Cursor interface: one
// implementation, two views.

// Batch is the unit a result travels in, from the operator to the
// socket: the output rows of one scan batch as columns (read-only,
// possibly views of the store) — typed vectors from the kernel pipeline
// or a materialized dataset, boxed ones (bat.AnyVector) where the
// interpreter produced the rows. err marks the terminal step of a
// failed stream.
type Batch struct {
	Vecs []bat.Vector
	err  error
}

// Len returns the number of rows.
func (b *Batch) Len() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// Value boxes one cell.
func (b *Batch) Value(col, row int) value.Value { return b.Vecs[col].Get(row) }

// Cell is one cell read without boxing — the one place that knows how
// a batch holds its cells. Typ says where the content is: N for Int,
// Timestamp (Unix microseconds) and Bool (0 or 1), Float() for Float
// (N holds its bits), S for String; a cell of any other type (an array
// handle) has no typed form and is read with Value. Four fields and no
// more: the compiler keeps a struct of up to four fields in registers
// and moves a wider one through the stack at every call and return,
// which made BenchmarkRowsDrain half again as slow.
type Cell struct {
	Typ  value.Type
	Null bool
	N    int64
	S    string
}

// Float is the content of a Float cell.
func (c Cell) Float() float64 { return math.Float64frombits(uint64(c.N)) }

// Cell reads cell (col, row).
func (b *Batch) Cell(col, row int) Cell {
	switch v := b.Vecs[col].(type) {
	case *bat.IntVector: // INTEGER or TIMESTAMP
		return Cell{Typ: v.Type(), Null: v.IsNull(row), N: v.Ints()[row]}
	case *bat.FloatVector:
		return Cell{Typ: value.Float, Null: v.IsNull(row), N: int64(math.Float64bits(v.Floats()[row]))}
	case *bat.StringVector:
		return Cell{Typ: value.String, Null: v.IsNull(row), S: v.Strings()[row]}
	case *bat.BoolVector:
		return CellOf(value.Value{Typ: value.Bool, Null: v.IsNull(row), B: v.Bools()[row]})
	}
	return CellOf(b.Vecs[col].Get(row))
}

// CellOf is the Cell of a boxed value.
func CellOf(v value.Value) Cell {
	c := Cell{Typ: v.Typ, Null: v.Null, N: v.I, S: v.S}
	switch {
	case v.Typ == value.Float:
		c.N = int64(math.Float64bits(v.F))
	case v.B:
		c.N = 1
	}
	return c
}

// head cuts the batch down to its first k rows.
func (b *Batch) head(k int) {
	vecs := make([]bat.Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = bat.ViewRange(v, 0, k)
	}
	b.Vecs = vecs
}

// approxBytes estimates the batch's footprint for the memory budget.
func (b *Batch) approxBytes() int64 { return approxDatasetBytes(&Dataset{Vecs: b.Vecs}) }

// Cursor is a pull-based stream of column batches over a query result.
// It is not safe for concurrent use; Close must be called when done
// (Materialize and a drained stream close it implicitly).
type Cursor struct {
	cols []Col
	// items carry the projection metadata needed to rebuild a dataset
	// with the same column typing as the materialized path; nil for
	// dataset-backed cursors.
	items []ast.SelectItem
	// ds backs fallback cursors (materialized execution): it is served
	// as the one batch of a stream that ends after it.
	ds *Dataset
	// nextBatch/stopBatch drive the stream; batch is the one being
	// served.
	nextBatch func() (Batch, bool)
	stopBatch func()
	batch     Batch
	cancel    context.CancelFunc
	done      bool
	err       error
	// onClose releases resources held for the cursor's lifetime (the
	// session's pinned catalog snapshot); run once, on first Close.
	onClose func()
	// mapErr translates terminal errors at the governance boundary
	// (timeout translation, panic accounting); nil on ungoverned
	// cursors. Applied once — c.err latches the translated error.
	mapErr func(error) error
	// batchCols is the static output column template of a vectorized
	// cursor (kernel result types; all-NULL columns refine to Float at
	// materialization, like the interpreter's type promotion); nil when
	// the interpreter produces the rows.
	batchCols []Col
}

// Cols describes the cursor's columns. For streaming cursors the
// types are provisional (computed expressions promote per row); names,
// qualifiers and dimension flags are exact.
func (c *Cursor) Cols() []Col { return c.cols }

// finishErr terminates the cursor with err: the governance boundary's
// translation applies (once — c.err latches the result), the cursor
// closes, and later calls keep returning the same error.
func (c *Cursor) finishErr(err error) error {
	if c.mapErr != nil {
		err = c.mapErr(err)
	}
	c.err = err
	c.Close()
	return err
}

// NextBatch is the cursor's one primitive: the next batch of the stream
// (valid until the following call), or (nil, nil) after the last one.
// After an error it keeps returning the same error. A panic in the
// producing pipeline is contained here, once per batch: it surfaces as
// a *governor.PanicError and the cursor's resources are released.
func (c *Cursor) NextBatch() (b *Batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, c.finishErr(governor.NewPanicError(r, debug.Stack()))
		}
	}()
	if c.err != nil {
		return nil, c.err
	}
	if c.done {
		return nil, nil
	}
	nb, ok := c.nextBatch()
	if !ok {
		c.done = true
		return nil, nil
	}
	if nb.err != nil {
		return nil, c.finishErr(nb.err)
	}
	c.batch = nb
	return &c.batch, nil
}

// Close releases the stream: the producing coroutine is stopped and
// any in-flight parallel workers are canceled. Safe to call multiple
// times. The resource teardown runs in a deferred block so a failure
// mid-close (the cursor.close fault point, a panicking stop hook) can
// never leak the snapshot pin or the admission slot.
func (c *Cursor) Close() {
	defer func() {
		r := recover()
		if c.cancel != nil {
			c.cancel()
		}
		if c.stopBatch != nil {
			c.stopBatch()
		}
		if c.onClose != nil {
			oc := c.onClose
			c.onClose = nil
			oc()
		}
		if r != nil {
			err := error(governor.NewPanicError(r, debug.Stack()))
			if c.mapErr != nil {
				err = c.mapErr(err)
			}
			if c.err == nil {
				c.err = err
			}
		}
	}()
	c.done = true
	if err := faultinject.Hit("cursor.close"); err != nil {
		if c.err == nil {
			c.err = err
		}
	}
}

// Materialize drains the cursor — every batch NextBatch has not handed
// out — into a dataset with the same column metadata and type promotion
// as the materializing execution path, so the two views of one query
// are byte-identical.
func (c *Cursor) Materialize() (*Dataset, error) {
	if c.ds != nil {
		return c.ds, nil
	}
	defer c.Close()
	// Vectorized cursors concatenate batch columns wholesale — no
	// per-row boxing; interpreted cells collect per column for the
	// interpreter's type promotion.
	acc := NewDataset(c.batchCols)
	colVals := make([][]value.Value, len(c.items))
	for {
		b, err := c.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i, v := range b.Vecs {
			if c.batchCols != nil {
				acc.Vecs[i] = bat.Concat(acc.Vecs[i], v)
				continue
			}
			for r := range v.Len() {
				colVals[i] = append(colVals[i], v.Get(r))
			}
		}
	}
	if c.batchCols == nil {
		return buildProjected(c.items, colVals), nil
	}
	cols := append([]Col(nil), c.batchCols...)
	for i := range acc.Vecs {
		acc.Vecs[i], cols[i].Typ = finalizeVecOutput(acc.Vecs[i])
	}
	return &Dataset{Cols: cols, Vecs: acc.Vecs}, nil
}

// Streaming reports whether rows are produced incrementally (as
// opposed to being served from a completed dataset).
func (c *Cursor) Streaming() bool { return c.ds == nil }

// oneBatch is the stream of a result that is complete before the first
// pull: b, then the end.
func oneBatch(b Batch) func() (Batch, bool) {
	more := true
	return func() (out Batch, ok bool) {
		out, ok, more = b, more, false
		return out, ok
	}
}

// DatasetCursor wraps an already-materialized result (the public layer
// streams EXPLAIN results through it like any other query).
func DatasetCursor(ds *Dataset) *Cursor {
	return &Cursor{cols: ds.Cols, ds: ds, nextBatch: oneBatch(Batch{Vecs: ds.Vecs})}
}

// streamPlan is a compiled single-array SELECT: the resolved scan plus
// the residual filter, and — for streamable statements — the per-row
// HAVING, projection and LIMIT.
type streamPlan struct {
	scanSource
	qual   string
	items  []ast.SelectItem
	where  ast.Expr // residual conjuncts after pushdown
	having ast.Expr // aggregate-free HAVING (post-where row filter)
	limit  int      // -1: none
	par    int
	outer  *baseEnv // host parameters
	// vec holds the compiled kernel pipeline when filter, HAVING and
	// every projection item vectorize; nil falls back to the row
	// interpreter per batch row.
	vec *streamVec
}

// streamVec is the compiled vectorized pipeline of a streamable
// SELECT: per scan batch, the filter program produces a selection
// vector, the referenced columns gather through it, and the item
// programs evaluate over the gathered batch.
type streamVec struct {
	filter  *vecProg   // nil when every conjunct was pushed down
	having  *vecProg   // nil without HAVING
	items   []*vecProg // one per projection item
	gather  []int      // batch columns the item programs reference
	outCols []Col      // static output column template
}

// compileStreamVec compiles the stream plan's expressions into kernel
// programs; nil when any of them falls outside the vectorizable
// surface (the caller keeps the row pipeline).
func (e *Engine) compileStreamVec(sp *streamPlan) *streamVec {
	if !e.vectorized {
		return nil
	}
	srcCols := sp.cols
	sv := &streamVec{}
	if sp.where != nil {
		if sv.filter = e.vecCompile(sp.where, srcCols, false); sv.filter == nil {
			return nil
		}
	}
	if sp.having != nil {
		if sv.having = e.vecCompile(sp.having, srcCols, false); sv.having == nil {
			return nil
		}
	}
	used := map[int]bool{}
	sv.items = make([]*vecProg, len(sp.items))
	sv.outCols = make([]Col, len(sp.items))
	for i, it := range sp.items {
		p := e.vecCompile(it.Expr, srcCols, false)
		if p == nil {
			return nil
		}
		sv.items[i] = p
		for _, ci := range p.used {
			used[ci] = true
		}
		sv.outCols[i] = Col{Name: itemName(it, i), Typ: p.typ, IsDim: it.DimQual}
		if id, ok := it.Expr.(*ast.Ident); ok {
			sv.outCols[i].Qual = id.Table
		}
	}
	for ci := range used {
		sv.gather = append(sv.gather, ci)
	}
	return sv
}

// vecProcessBatch runs the compiled pipeline over one input batch:
// filter → selection vector → gather → projection kernels. max caps
// the number of output rows (LIMIT pushdown; -1 for none).
func (e *Engine) vecProcessBatch(sp *streamPlan, in *Dataset, max int) []bat.Vector {
	sv := sp.vec
	pf := sp.prof
	n := in.NumRows()
	out := make([]bat.Vector, len(sv.items))
	var sel []int
	all := true
	var t0 time.Time
	if sv.filter != nil {
		if pf != nil {
			t0 = time.Now()
		}
		sel = sv.filter.filterSel(in.Vecs, 0, n)
		if pf != nil {
			pf.Filter.AddNanos(time.Since(t0))
			pf.Filter.RowsIn.Add(int64(n))
			pf.Filter.RowsOut.Add(int64(len(sel)))
			pf.Filter.VecBatches.Add(1)
		}
		all = false
	}
	if sv.having != nil {
		if pf != nil {
			t0 = time.Now()
		}
		hv := sv.having.eval(in.Vecs, 0, n)
		if all {
			sel = make([]int, n)
			for i := range sel {
				sel[i] = i
			}
			all = false
		}
		pre := len(sel)
		sel = bat.AndSel(sel, hv)
		if pf != nil {
			pf.Having.AddNanos(time.Since(t0))
			pf.Having.RowsIn.Add(int64(pre))
			pf.Having.RowsOut.Add(int64(len(sel)))
			pf.Having.VecBatches.Add(1)
		}
	}
	m := n
	if !all {
		m = len(sel)
	}
	if max >= 0 && m > max {
		m = max
		if !all {
			sel = sel[:m]
		}
	}
	if pf != nil {
		t0 = time.Now()
	}
	gin := in.Vecs
	if !all || m < n {
		gin = make([]bat.Vector, len(in.Vecs))
		for _, ci := range sv.gather {
			if all {
				gin[ci] = bat.ViewRange(in.Vecs[ci], 0, m)
			} else {
				gin[ci] = in.Vecs[ci].Gather(sel)
			}
		}
	}
	for i, p := range sv.items {
		out[i] = p.eval(gin, 0, m)
	}
	if pf != nil {
		pf.Project.AddNanos(time.Since(t0))
		pf.Project.RowsIn.Add(int64(m))
		pf.Project.RowsOut.Add(int64(m))
		pf.Project.VecBatches.Add(1)
		if sp.limit >= 0 {
			pf.Limit.RowsOut.Add(int64(m))
			pf.Limit.VecBatches.Add(1)
		}
	}
	e.metrics().scanRows.Add(int64(m))
	return out
}

// QueryStream executes a SELECT as a row stream. Statements whose
// shape does not qualify for incremental execution are materialized
// (honoring ctx) and streamed from the completed dataset. Like
// ExecContext it is a governance boundary, but the admission slot,
// memory budget and statement timer live for the cursor's lifetime:
// they release on Cursor.Close (or the teardown safety nets), not when
// this call returns.
func (e *Engine) QueryStream(ctx context.Context, sel *ast.Select, params map[string]value.Value) (cur *Cursor, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.stmtDepth > 0 {
		return e.queryStreamPinned(ctx, sel, params)
	}
	gov := e.gov
	admitRel, err := gov.Admit(ctx)
	if err != nil {
		return nil, err
	}
	sctx, cancel := gov.WithStatementTimeout(ctx)
	bud := gov.NewBudget()
	e.budget = bud
	e.stmtDepth++
	cleanup := func() {
		cancel()
		bud.Release()
		admitRel()
	}
	defer func() {
		e.stmtDepth--
		e.budget = nil
		if r := recover(); r != nil {
			cur, err = nil, governor.NewPanicError(r, debug.Stack())
		}
		err = govFinish(gov, sctx, err)
		if err != nil || cur == nil {
			cleanup()
			return
		}
		// Success: governance outlives the call. Terminal errors reported
		// through the cursor translate at the same boundary, and the
		// cursor's close hook — ledgered so teardown safety nets reach it
		// for cursors abandoned without Close — releases slot, budget and
		// timer.
		govRel := e.registerCursorRelease(cleanup)
		cur.mapErr = func(err error) error { return govFinish(gov, sctx, err) }
		prev := cur.onClose
		cur.onClose = func() {
			if prev != nil {
				prev()
			}
			govRel()
		}
	}()
	return e.queryStreamPinned(sctx, sel, params)
}

// queryStreamPinned is QueryStream inside the governance boundary:
// snapshot pinning, stream compilation and the materializing fallback.
func (e *Engine) queryStreamPinned(ctx context.Context, sel *ast.Select, params map[string]value.Value) (*Cursor, error) {
	start := time.Now()
	release := e.pinCursorSnapshot()
	// The pin releases on every exit — error, fallback, or a panic
	// propagating through compilation or the materializing fallback —
	// except when ownership transfers to the returned stream cursor.
	pinHeld := release != nil
	defer func() {
		if pinHeld {
			release()
		}
	}()
	sp, ok, err := e.compileStream(sel, newBaseEnv(params))
	if err == nil && !ok {
		// The materializing fallback runs through ExecContext, which
		// does its own statement accounting and snapshot pinning.
		ds, err := e.ExecContext(ctx, sel, params)
		if err != nil {
			return nil, err
		}
		return DatasetCursor(ds), nil
	}
	var cur *Cursor
	if err == nil {
		cur, err = e.streamCursorFor(ctx, sp)
	}
	if err != nil {
		e.metrics().statement("select", time.Since(start))
		return nil, err
	}
	met := e.metrics()
	cur.onClose = func() {
		if release != nil {
			release()
		}
		met.statement("select", time.Since(start))
	}
	pinHeld = false
	return cur, nil
}

// ReleaseCursorPins frees the catalog snapshots pinned by this
// session's still-open streaming cursors: the connection layer's
// teardown safety net for Rows abandoned without Close (context
// cancellation, a panicking consumer, a driver connection closed
// mid-iteration). Releasing is idempotent per cursor, so a later
// Cursor.Close finds nothing left to do.
func (e *Engine) ReleaseCursorPins() {
	for _, rel := range e.curPins {
		rel()
	}
}

// ReleaseAllCursorPins frees the cursor-held snapshot pins of every
// session of this database — DB.Close's safety net for Rows abandoned
// on implicit (per-call) sessions, which no connection teardown ever
// reaches. Like ReleaseCursorPins, it is a teardown call: run it after
// in-flight statements have finished.
func (sh *Shared) ReleaseAllCursorPins() {
	sh.curMu.Lock()
	rels := make([]func(), 0, len(sh.curRel))
	for _, rel := range sh.curRel {
		rels = append(rels, rel)
	}
	sh.curMu.Unlock()
	for _, rel := range rels {
		rel()
	}
}

// streamCursorFor opens the cursor of a compiled stream plan: parallel
// over scan chunks when the plan and the chunking allow it, a serial
// coroutine otherwise.
func (e *Engine) streamCursorFor(ctx context.Context, sp *streamPlan) (*Cursor, error) {
	cur := &Cursor{cols: streamColumns(sp.items, sp.arr, sp.qual), items: sp.items}
	if sp.vec != nil {
		cur.batchCols = sp.vec.outCols
	}
	if allPoint(sp.eff) { // one cell, one batch: no chunk walk, no coroutine
		in := readPoint(&sp.scanSource)
		e.metrics().scanCells.Add(int64(in.NumRows()))
		out, err := e.streamBatch(sp, in, sp.limit)
		if err == nil {
			err = chargeBudget(sp.budget, out.approxBytes())
		}
		if err != nil {
			return nil, err
		}
		cur.nextBatch = oneBatch(out)
		return cur, nil
	}
	chunks, err := e.scanChunks(&sp.scanSource)
	if err != nil {
		return nil, err
	}
	seq := e.serialStream(ctx, sp, chunks)
	if sp.par > 1 && e.pool != nil && len(chunks) >= 2 {
		ctx, cur.cancel = context.WithCancel(ctx)
		seq = e.parallelStream(ctx, cur.cancel, sp, chunks)
	}
	cur.nextBatch, cur.stopBatch = iter.Pull(seq)
	return cur, nil
}

// compileScan resolves the single catalog-array scan under sel: FROM
// slicing, dimension pushdown (what is left of WHERE becomes the
// residual filter), the pruned scan projection and the zone-map skip
// conditions. ok is false (with no error) when the FROM clause is
// anything else or an expression needs engine state — those statements
// take the materializing path. A restriction that pins every dimension
// (allPoint(sp.eff)) is a single cell read: a cursor serves it as a
// one-row batch, the materializing callers leave it to scanArrayPruned.
func (e *Engine) compileScan(sel *ast.Select, env *baseEnv) (*streamPlan, bool, error) {
	if len(sel.From) != 1 {
		return nil, false, nil
	}
	tr, ok := sel.From[0].(*ast.TableRef)
	if !ok || tr.Subquery != nil {
		return nil, false, nil
	}
	// NEXT/subqueries/UDFs/RAND need engine state (parSafeSelect vets
	// all of those plus indexers).
	if !parSafeSelect(sel) {
		return nil, false, nil
	}
	// Only catalog arrays scan in chunks; environment-bound arrays and
	// tables fall back (they are small or already materialized).
	if _, envBound := env.Lookup("", tr.Name); envBound {
		return nil, false, nil
	}
	arr, found := e.cat().Array(tr.Name)
	if !found {
		return nil, false, nil
	}
	if e.fromIsVacuous(sel, env) {
		return nil, false, nil
	}
	sp := &streamPlan{qual: tr.Name, limit: -1, outer: env}
	sp.arr, sp.prof, sp.budget = arr, e.prof, e.budget
	if tr.Alias != "" {
		sp.qual = tr.Alias
	}
	var sels []dimSel
	if len(tr.Indexers) > 0 {
		var err error
		if sels, err = e.resolveIndexers(arr, tr.Indexers, env); err != nil {
			return nil, false, err
		}
	}
	conjs := splitConjuncts(sel.Where)
	consumed := make([]bool, len(conjs))
	restrict := e.pushdownDims(arr, sp.qual, conjs, consumed, sels, env)
	remaining := unconsumed(conjs, consumed)
	sp.where = andAll(remaining)
	sp.eff = effectiveSels(arr, sels, restrict)
	dec := e.selectDecision(sel)
	sp.par = dec.par
	sp.attrs = dec.scanAttrs(arr, tr.Name)
	sp.cols = scanColsPruned(arr, sp.qual, sp.attrs)
	if !allPoint(sp.eff) {
		// Single-source statement: unqualified identifiers bind to this
		// array, so bare conjuncts are trusted for zone tests.
		sp.skip = e.buildChunkSkipper(arr, sp.qual, sp.eff, remaining, true)
	}
	return sp, true, nil
}

// compileStream vets the SELECT's shape and compiles the stream plan.
// ok is false (with no error) when the statement must fall back to the
// materializing path.
func (e *Engine) compileStream(sel *ast.Select, env *baseEnv) (*streamPlan, bool, error) {
	if sel.SetRight != nil || sel.Distinct || len(sel.OrderBy) > 0 || sel.GroupBy != nil {
		return nil, false, nil
	}
	// Aggregates need the whole input.
	for _, it := range sel.Items {
		if it.Expr == nil || ast.HasAggregate(it.Expr) {
			return nil, false, nil
		}
	}
	if sel.Having != nil && ast.HasAggregate(sel.Having) {
		return nil, false, nil
	}
	sp, ok, err := e.compileScan(sel, env)
	if err != nil || !ok {
		return nil, false, err
	}
	sp.having = sel.Having
	if sel.Limit != nil {
		lv, err := e.Ev.Eval(sel.Limit, env)
		if err != nil {
			return nil, false, err
		}
		sp.limit = max(int(lv.AsInt()), 0)
	}
	sp.items = expandStars(sel.Items, scanCols(sp.arr, sp.qual))
	for _, it := range sp.items {
		if _, isStar := it.Expr.(*ast.Star); isStar {
			return nil, false, fmt.Errorf("cannot expand * against %s", sp.qual)
		}
	}
	sp.vec = e.compileStreamVec(sp)
	return sp, true, nil
}

// streamColumns builds the provisional column header of a streaming
// cursor: names, qualifiers and dimension flags are final; types of
// computed expressions refine during materialization.
func streamColumns(items []ast.SelectItem, a *array.Array, qual string) []Col {
	src := scanCols(a, qual)
	cols := make([]Col, len(items))
	for i, it := range items {
		cols[i] = Col{Name: itemName(it, i), Typ: value.Unknown, IsDim: it.DimQual}
		if id, ok := it.Expr.(*ast.Ident); ok {
			cols[i].Qual = id.Table
			for _, sc := range src {
				if strings.EqualFold(sc.Name, id.Name) && (id.Table == "" || strings.EqualFold(sc.Qual, id.Table)) {
					cols[i].Typ = sc.Typ
					break
				}
			}
		}
	}
	return cols
}

// streamBatch runs one scan batch through filter, HAVING and
// projection, emitting at most max rows (LIMIT pushdown; -1 for no
// cap): the kernel pipeline when the plan compiled, otherwise the
// interpreter reading rows out of the batch.
func (e *Engine) streamBatch(sp *streamPlan, in *Dataset, max int) (Batch, error) {
	if sp.vec != nil {
		return Batch{Vecs: e.vecProcessBatch(sp, in, max)}, nil
	}
	var t0 time.Time
	if sp.prof != nil {
		t0 = time.Now()
	}
	env := &rowEnv{d: in, outer: sp.outer}
	n := in.NumRows()
	cols := make([][]value.Value, len(sp.items)) // column-major: one boxed vector per item
	var postWhere, emitted int64
	for r := 0; r < n && (max < 0 || emitted < int64(max)); r++ {
		env.row = r
		if sp.where != nil {
			if ok, err := e.Ev.EvalBool(sp.where, env); err != nil {
				return Batch{}, err
			} else if !ok {
				continue
			}
		}
		postWhere++
		if sp.having != nil {
			if ok, err := e.Ev.EvalBool(sp.having, env); err != nil {
				return Batch{}, err
			} else if !ok {
				continue
			}
		}
		for i, it := range sp.items {
			v, err := e.Ev.Eval(it.Expr, env)
			if err != nil {
				return Batch{}, err
			}
			cols[i] = append(cols[i], v)
		}
		emitted++
	}
	out := make([]bat.Vector, len(cols))
	for i, vals := range cols {
		out[i] = bat.NewAnyVector(value.Unknown, vals)
	}
	e.metrics().scanRows.Add(emitted)
	if p := sp.prof; p != nil {
		// Filter and projection interleave per row; their time lands on
		// the pipeline's root operator.
		p.Project.AddNanos(time.Since(t0))
		if sp.where != nil {
			p.Filter.RowsIn.Add(int64(n))
			p.Filter.RowsOut.Add(postWhere)
			p.Filter.RowBatches.Add(1)
		}
		if sp.having != nil {
			p.Having.RowsIn.Add(postWhere)
			p.Having.RowsOut.Add(emitted)
			p.Having.RowBatches.Add(1)
		}
		p.Project.RowsIn.Add(emitted)
		p.Project.RowsOut.Add(emitted)
		p.Project.RowBatches.Add(1)
		if sp.limit >= 0 {
			p.Limit.RowsOut.Add(emitted)
			p.Limit.RowBatches.Add(1)
		}
	}
	return Batch{Vecs: out}, nil
}

// serialStream walks the chunks in order on the consumer's coroutine,
// yielding each batch's output as it is produced. Only one of producer
// and consumer runs at a time (iter.Pull), and a satisfied LIMIT stops
// the store walk mid-chunk.
func (e *Engine) serialStream(ctx context.Context, sp *streamPlan, chunks []array.ColumnChunk) iter.Seq[Batch] {
	return func(yield func(Batch) bool) {
		emitted := 0
		for _, chunk := range chunks {
			if sp.limit >= 0 && emitted >= sp.limit {
				return
			}
			var batchErr error
			gone := false
			err := e.scanChunk(ctx, &sp.scanSource, chunk, func(in *Dataset) bool {
				max := -1
				if sp.limit >= 0 {
					max = sp.limit - emitted
				}
				out, err := e.streamBatch(sp, in, max)
				if err == nil {
					err = chargeBudget(sp.budget, out.approxBytes())
				}
				if err != nil {
					batchErr = err
					return false
				}
				emitted += out.Len()
				if out.Len() > 0 && !yield(out) {
					gone = true
					return false
				}
				return sp.limit < 0 || emitted < sp.limit
			})
			if gone {
				return
			}
			if err == nil {
				err = batchErr
			}
			if err != nil {
				yield(Batch{err: err})
				return
			}
		}
	}
}

// parallelStream fans the chunks out over the morsel pool, each worker
// running its chunk's batches through the pipeline, and hands the
// consumer every chunk's batches — as they were produced, never
// concatenated — re-ordered by chunk ordinal: chunk order equals serial
// scan order, so the stream is identical to the serial one. Per-chunk
// output is capped at LIMIT rows (the result takes at most that many
// from any chunk); once enough rows have surfaced across the ordered
// prefix the consumer returns, which cancels ctx and stops the workers
// scheduling further chunks. Workers start on the first pull. Sends
// select on ctx.Done(), so canceling the query (or closing the cursor
// early) leaks no goroutine; the consumer hands out what arrived in
// order, then the producer's error.
func (e *Engine) parallelStream(ctx context.Context, cancel context.CancelFunc, sp *streamPlan, chunks []array.ColumnChunk) iter.Seq[Batch] {
	type chunkOut struct {
		idx int
		out []Batch
	}
	// Room for every worker to park a finished chunk while one more is
	// in flight, so a slow consumer does not stall the pool at once.
	ch := make(chan chunkOut, 2*e.pool.Workers())
	var failed error // the producer's verdict, set before ch closes
	produce := func() {
		defer close(ch)
		failed = e.forEachChunk(ctx, sp.par, len(chunks), func(ci int) error {
			var out []Batch
			var batchErr error
			var rows int
			var bytes int64
			err := e.scanChunk(ctx, &sp.scanSource, chunks[ci], func(in *Dataset) bool {
				max := -1
				if sp.limit >= 0 {
					max = sp.limit - rows
				}
				var b Batch
				if b, batchErr = e.streamBatch(sp, in, max); batchErr != nil {
					return false
				}
				if n := b.Len(); n > 0 {
					out, rows, bytes = append(out, b), rows+n, bytes+b.approxBytes()
				}
				return sp.limit < 0 || rows < sp.limit
			})
			if err == nil {
				err = batchErr
			}
			if err == nil {
				err = chargeBudget(sp.budget, bytes)
			}
			if err != nil {
				return err
			}
			select {
			case ch <- chunkOut{idx: ci, out: out}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}
	return func(yield func(Batch) bool) {
		defer cancel()
		go produce()
		pending := make(map[int][]Batch)
		next, emitted := 0, 0
		full := func() bool { return sp.limit >= 0 && emitted >= sp.limit }
		for c := range ch {
			pending[c.idx] = c.out
			for {
				outs, have := pending[next]
				if !have {
					break
				}
				delete(pending, next)
				next++
				for _, out := range outs {
					if sp.limit >= 0 && emitted+out.Len() > sp.limit {
						out.head(sp.limit - emitted)
					}
					emitted += out.Len()
					if !yield(out) || full() {
						return
					}
				}
				if full() {
					return
				}
			}
		}
		// The stream ended short of its last chunk: an error, or a cancel —
		// which must surface as one, never as a result that just stops.
		if failed != nil {
			yield(Batch{err: failed})
		}
	}
}
