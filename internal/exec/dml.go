package exec

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// This file is the array DML of §3.2. UPDATE, DELETE and the general
// SET are consumers of the columnar scan: the cells a statement ranges
// over — for a bounded array every covered cell, holes included as
// all-NULL rows — arrive as column batches with the statement's
// dimension predicates pushed down, WHERE becomes a selection vector,
// SET values become typed vectors (kernels where the expression
// compiles, the interpreter over the rows of the same batch where it
// does not), and the vectors are scattered into the private store
// version through its bulk-write face. For the statement's duration
// the array itself reads as a frozen, structure-sharing clone of its
// pre-statement version, so every read — the statement's own batches,
// an array reference like m[x-1].v, a subquery over the target — sees
// pre-statement values whatever the batch or segment boundaries, and no
// batch view can alias a segment being written.

// dmlScan is one statement's walk over its target array.
type dmlScan struct {
	e     *Engine
	a     *array.Array
	out   array.BulkWriter // the version being written; a.Store again at finish
	src   *scanSource      // what the statement reads
	where ast.Expr         // residual predicate after pushdown
	outer expr.Env
	// cells and matched are what the statement scanned and selected,
	// segments and bytes what its writes had to privatize; interpreted is
	// set when any batch went through the row interpreter.
	cells, matched, segments, bytes int64
	interpreted                     bool
	start                           time.Time
	// finish ends a writing statement: the array reads as what was
	// written, and the profile hears the counts.
	finish func()
}

// newDMLScan resolves the cells where ranges over in a, which the
// caller does not write while it walks: dimension conjuncts of where
// restrict the scan, the rest filter its batches. A covered walk is
// what DML ranges over (scanSource.covered), the other the live cells.
func (e *Engine) newDMLScan(a *array.Array, where ast.Expr, outer expr.Env, covered bool) *dmlScan {
	conjs := splitConjuncts(where)
	consumed := make([]bool, len(conjs))
	restrict := e.pushdownDims(a, a.Name, conjs, consumed, nil, outer)
	src := &scanSource{arr: a, cols: scanCols(a, a.Name), eff: effectiveSels(a, nil, restrict), covered: covered, prof: e.prof, budget: e.budget}
	return &dmlScan{e: e, a: a, src: src, where: andAll(unconsumed(conjs, consumed)), outer: outer, start: time.Now()}
}

// beginDML is newDMLScan for a statement that writes a. The caller
// defers finish.
func (e *Engine) beginDML(a *array.Array, where ast.Expr, outer expr.Env) (*dmlScan, error) {
	out, ok := a.Store.(array.BulkWriter)
	if !ok {
		return nil, fmt.Errorf("array %s: %s storage offers no bulk write", a.Name, a.Store.Scheme())
	}
	written, frozen := a.Store, a.Store.Clone()
	a.Store = frozen
	d := e.newDMLScan(a, where, outer, true)
	d.out = out
	// The statement listens in on the account of what writes to the store
	// copy (the catalog's counter, when the array is a catalog's).
	var prev func(bytes int64)
	prev = out.ObserveCopies(func(bytes int64) {
		d.segments, d.bytes = d.segments+1, d.bytes+bytes
		if prev != nil {
			prev(bytes)
		}
	})
	d.finish = func() {
		out.ObserveCopies(prev)
		if a.Store == frozen { // else the statement rebuilt the store
			a.Store = written
		}
		d.report()
	}
	return d, nil
}

// each hands visit the matching rows of every batch, in scan order, as
// a dataset whose column list is its own (visit may replace columns;
// the vectors may be views of the snapshot and must not be written).
func (d *dmlScan) each(visit func(cur *Dataset) error) error {
	e := d.e
	chunks, err := e.scanChunks(d.src)
	if err != nil {
		return err
	}
	prog := e.vecCompile(d.where, d.src.cols, true)
	ctx := e.ctx()
	for _, chunk := range chunks {
		var verr error
		err := e.scanChunk(ctx, d.src, chunk, func(in *Dataset) bool {
			n := in.NumRows()
			d.cells += int64(n)
			cur := &Dataset{Cols: in.Cols, Vecs: slices.Clone(in.Vecs)}
			if d.where != nil {
				p := prog
				if p != nil && !p.validFor(in.Vecs) {
					p = nil
				}
				d.interpreted = d.interpreted || p == nil
				var keep []int
				if keep, verr = e.batchFilter(d.where, p, in, d.outer); verr != nil || len(keep) == 0 {
					return verr == nil
				}
				if len(keep) < n {
					cur = in.Gather(keep)
				}
			}
			d.matched += int64(cur.NumRows())
			verr = visit(cur)
			return verr == nil
		})
		if err = cmp.Or(verr, err); err != nil {
			return err
		}
	}
	return nil
}

// column evaluates x over every row of cur as a column of type typ:
// through kernels when x compiles against the batch, row by row
// otherwise. A value that does not coerce becomes NULL, and so does one
// the attribute's CHECK rejects.
func (d *dmlScan) column(x ast.Expr, cur *Dataset, at array.Attr) (bat.Vector, error) {
	n := cur.NumRows()
	var out bat.Vector
	if p := d.e.vecCompile(x, cur.Cols, true); p != nil && p.validFor(cur.Vecs) {
		out = coerceVector(p.eval(cur.Vecs, 0, n), at.Typ)
	} else {
		d.interpreted = true
		vals := make([]value.Value, n)
		env := &rowEnv{d: cur, outer: d.outer}
		for env.row = 0; env.row < n; env.row++ {
			v, err := d.e.Ev.Eval(x, env)
			if err != nil {
				return nil, err
			}
			vals[env.row] = coerceOrNull(v, at.Typ)
		}
		out = bat.FromValues(at.Typ, vals)
	}
	// SET a = b hands b's column through, maybe a view of the store.
	return checkColumn(out, at, !slices.Contains(cur.Vecs, out)), nil
}

// checkColumn nullifies the values of v the attribute's CHECK rejects
// (Fig. 2's sparse form), in place when v is the caller's own.
func checkColumn(v bat.Vector, at array.Attr, owned bool) bat.Vector {
	for i := 0; at.Check != nil && i < v.Len(); i++ {
		if x := v.Get(i); !x.Null && !at.Check(x) {
			if !owned {
				v, owned = v.Clone(), true
			}
			v.Set(i, value.NewNull(at.Typ))
		}
	}
	return v
}

func coerceOrNull(v value.Value, t value.Type) value.Value {
	cv, err := value.Coerce(v, t)
	if err != nil {
		return value.NewNull(t)
	}
	return cv
}

// coerceVector is value.Coerce over a column.
func coerceVector(v bat.Vector, t value.Type) bat.Vector {
	if vecBacked(v, t) {
		return v
	}
	if src, ok := v.(*bat.IntVector); ok && t == value.Float {
		return bat.ToFloat64(src)
	}
	vals := make([]value.Value, v.Len())
	for i := range vals {
		vals[i] = coerceOrNull(v.Get(i), t)
	}
	return bat.FromValues(t, vals)
}

// scatter writes vals into attribute ai of the cells at coords, behind
// the dml.scatter fault point, and charges what the write privatized
// and its position buffer to the statement.
func (d *dmlScan) scatter(coords []bat.Vector, ai int, vals bat.Vector) error {
	if err := faultinject.Hit("dml.scatter"); err != nil {
		return err
	}
	before := d.bytes
	if err := d.out.Scatter(coords, ai, vals); err != nil {
		return err
	}
	return chargeBudget(d.e.budget, d.bytes-before+8*int64(vals.Len()))
}

// report publishes the statement's counts to the armed profile.
func (d *dmlScan) report() {
	p := d.e.prof
	if p == nil {
		return
	}
	p.DML.AddNanos(time.Since(d.start))
	p.DML.Cells.Add(d.cells)
	p.DML.RowsOut.Add(d.matched)
	mode := "columnar"
	if d.interpreted {
		mode = "interpreted"
	}
	p.DML.SetDetail(fmt.Sprintf("matched=%d segments_copied=%d %s", d.matched, d.segments, mode))
}

// --- UPDATE ------------------------------------------------------------------

func (e *Engine) execUpdate(s *ast.Update, outer expr.Env) error {
	if a, ok := e.mut.ArrayForWrite(s.Table); ok {
		return e.updateArray(a, s, outer)
	}
	if t, ok := e.mut.TableForWrite(s.Table); ok {
		return e.updateTable(t, s, outer)
	}
	return fmt.Errorf("UPDATE: no such table or array %s", s.Table)
}

func (e *Engine) updateArray(a *array.Array, s *ast.Update, outer expr.Env) error {
	// Nested-array targets (UPDATE experiment SET payload[x][y] = ...)
	// iterate the nested cells of every outer cell.
	if len(s.Sets) == 1 {
		if ref, ok := s.Sets[0].Target.(*ast.ArrayRef); ok {
			if id, ok2 := ref.Base.(*ast.Ident); ok2 {
				if ai := attrIndexFold(a, id.Name); ai >= 0 && a.Schema.Attrs[ai].Typ == value.Array {
					return e.updateNestedArray(a, ai, ref, s, outer)
				}
			}
		}
	}
	d, err := e.beginDML(a, s.Where, outer)
	if err != nil {
		return err
	}
	defer d.finish()
	nd := len(a.Schema.Dims)
	return d.each(func(cur *Dataset) error {
		// Assignments apply in order and later SET clauses see earlier
		// results (the NDVI pipeline relies on this): each produced
		// column replaces the attribute's in the batch. The batch's own
		// columns are the snapshot's, so scattering one clause cannot
		// change what the next one reads.
		for _, asg := range s.Sets {
			coords, ai, err := d.target(asg.Target, cur)
			if err != nil {
				return err
			}
			vals, err := d.column(asg.Value, cur, a.Schema.Attrs[ai])
			if err != nil {
				return err
			}
			cur.Vecs[nd+ai] = vals
			if coords == nil {
				coords = cur.Vecs[:nd:nd]
			} else {
				var keep []int
				keep, coords = d.moveRows(coords, nil)
				vals = vals.Gather(keep)
			}
			if err := d.scatter(coords, ai, vals); err != nil {
				return err
			}
		}
		return nil
	})
}

// target resolves a SET target over the rows of cur: the attribute it
// writes and, for an array reference (m[x].v writes row x), the
// coordinate columns its indexers evaluate to under each row; nil
// coords means every row writes its own cell.
func (d *dmlScan) target(target ast.Expr, cur *Dataset) (coords []bat.Vector, ai int, err error) {
	a := d.a
	switch t := target.(type) {
	case *ast.Ident:
		if ai = attrIndexFold(a, t.Name); ai < 0 {
			return nil, 0, fmt.Errorf("array %s has no attribute %s", a.Name, t.Name)
		}
		return nil, ai, nil
	case *ast.ArrayRef:
		id, ok := t.Base.(*ast.Ident)
		if !ok || (!strings.EqualFold(id.Name, a.Name) && attrIndexFold(a, id.Name) < 0) {
			return nil, 0, fmt.Errorf("assignment target must reference %s", a.Name)
		}
		if ai, err = pickAttr(a, t.Attr); err != nil {
			return nil, 0, err
		}
		d.interpreted = true
		n := cur.NumRows()
		cols := make([][]int64, len(a.Schema.Dims))
		for i := range cols {
			cols[i] = make([]int64, n)
		}
		env := &rowEnv{d: cur, outer: d.outer}
		for env.row = 0; env.row < n; env.row++ {
			sels, err := d.e.resolveIndexers(a, t.Indexers, env)
			if err != nil {
				return nil, 0, err
			}
			for i, s := range sels {
				if !s.point {
					return nil, 0, fmt.Errorf("assignment target must use point indexes")
				}
				cols[i][env.row] = s.val
			}
		}
		coords = make([]bat.Vector, len(cols))
		for i, c := range cols {
			coords[i] = bat.NewIntVector(c)
		}
		return coords, ai, nil
	}
	return nil, 0, fmt.Errorf("invalid assignment target %T", target)
}

// moveRows applies move to every coordinate of the cells at coords (nil
// leaves them where they are) and returns the rows whose cell stays
// inside the array's valid domain, with their new coordinate columns:
// a write that lands outside is silently lost.
func (d *dmlScan) moveRows(coords []bat.Vector, move func(dim int, c int64) (int64, bool)) (keep []int, moved []bat.Vector) {
	n := coords[0].Len()
	cols := make([][]int64, len(coords))
	cell := make([]int64, len(coords))
rows:
	for i := 0; i < n; i++ {
		for dim, c := range coords {
			if c.IsNull(i) {
				continue rows
			}
			cell[dim] = c.(*bat.IntVector).Ints()[i]
			if move != nil {
				var ok bool
				if cell[dim], ok = move(dim, cell[dim]); !ok {
					continue rows
				}
			}
		}
		if d.a.ValidCoords(cell) {
			keep = append(keep, i)
			for dim, c := range cell {
				cols[dim] = append(cols[dim], c)
			}
		}
	}
	moved = make([]bat.Vector, len(cols))
	for dim, c := range cols {
		moved[dim] = bat.NewIntVectorValid(d.a.Schema.Dims[dim].Typ, c, nil, 0)
	}
	return keep, moved
}

// writeCell writes one cell, CHECK constraints honored (Array.Set); a
// write outside the valid domain is silently ignored.
func (e *Engine) writeCell(a *array.Array, coords []int64, attr int, v value.Value) error {
	if !a.ValidCoords(coords) {
		return nil
	}
	return a.Set(coords, attr, v)
}

// updateNestedArray handles SET <nested>[i][j] = expr over an
// array-valued attribute: the free index variables range over the
// nested array's cells (§3.2's payload example). The nested array is
// cloned before mutation and written back into the (already private)
// outer cell: boxed array values are shared across catalog versions
// by the store's segments, so writing in place would leak the update
// into snapshots pinned by concurrent readers.
func (e *Engine) updateNestedArray(a *array.Array, ai int, ref *ast.ArrayRef, s *ast.Update, outer expr.Env) error {
	d, err := e.beginDML(a, nil, outer)
	if err != nil {
		return err
	}
	defer d.finish()
	d.interpreted = true
	nd := len(a.Schema.Dims)
	return d.each(func(cur *Dataset) error {
		payload := cur.Vecs[nd+ai]
		for row := 0; row < cur.NumRows(); row++ {
			nv := payload.Get(row)
			shared, ok := nv.A.(*array.Array)
			if nv.Null || nv.Typ != value.Array || !ok {
				continue
			}
			nested := shared.Clone()
			cell := cur.Gather([]int{row})
			if err := d.scatter(cell.Vecs[:nd], ai, bat.FromValues(value.Array, []value.Value{value.NewArray(nested)})); err != nil {
				return err
			}
			nai, err := pickAttr(nested, ref.Attr)
			if err != nil {
				return err
			}
			// An UPDATE of the nested array on its own: its cells see the
			// outer cell's columns beneath their own.
			inner := &ast.Update{Sets: []ast.Assign{{Target: &ast.Ident{Name: nested.Schema.Attrs[nai].Name}, Value: s.Sets[0].Value}}, Where: s.Where}
			if err := e.updateArray(nested, inner, &rowEnv{d: cell, outer: outer}); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- SET statement -------------------------------------------------------------

// arrayForSet resolves the target array of a standalone SET: catalog
// arrays come back as this statement's private copy-on-write version;
// environment-bound arrays (PSM locals and parameters are private
// values already) resolve like any array base.
func (e *Engine) arrayForSet(base ast.Expr, env expr.Env) (*array.Array, error) {
	if id, ok := base.(*ast.Ident); ok && id.Table == "" {
		if _, bound := env.Lookup("", id.Name); !bound {
			if a, ok := e.mut.ArrayForWrite(id.Name); ok {
				return a, nil
			}
		}
	}
	return e.resolveArrayBase(base, env)
}

// execSetStmt implements the standalone guarded SET form (§4.2):
// SET vector[x].v = CASE ... END. Free dimension variables in the
// target's indexers range over all valid dimension values; a guarded
// CASE with no matching arm leaves the cell unchanged.
func (e *Engine) execSetStmt(s *ast.SetStmt, outer expr.Env) error {
	ref, ok := s.Assign.Target.(*ast.ArrayRef)
	if !ok {
		return fmt.Errorf("SET requires an array reference target")
	}
	a, err := e.arrayForSet(ref.Base, outer)
	if err != nil {
		return err
	}
	ai, err := pickAttr(a, ref.Attr)
	if err != nil {
		return err
	}
	guarded := false
	if c, ok := s.Assign.Value.(*ast.Case); ok && c.Else == nil {
		guarded = true
	}
	// Positional list assignment: SET vector[0:2].v = (e1, e2).
	if list, ok := s.Assign.Value.(*ast.ExprList); ok {
		sels, err := e.resolveIndexers(a, ref.Indexers, outer)
		if err != nil {
			return err
		}
		// The cells are the indexers' cross product in row-major order.
		axes := make([][]int64, len(sels))
		cells := 1
		cache := newDimValuesCache(e.ctx())
		for di, sl := range sels {
			if axes[di], err = selCoords(sl, a, di, cache, nil); err != nil {
				return err
			}
			cells *= len(axes[di])
		}
		if len(list.Elems) > cells {
			return fmt.Errorf("SET: %d values for %d cells", len(list.Elems), cells)
		}
		coords := make([]int64, len(sels))
		for i, el := range list.Elems {
			v, err := e.Ev.Eval(el, outer)
			if err != nil {
				return err
			}
			cv, err := value.Coerce(v, a.Schema.Attrs[ai].Typ)
			if err != nil {
				return err
			}
			for di, rem := len(axes)-1, i; di >= 0; di-- {
				coords[di], rem = axes[di][rem%len(axes[di])], rem/len(axes[di])
			}
			if err := e.writeCell(a, coords, ai, cv); err != nil {
				return err
			}
		}
		return nil
	}
	// General form: iterate covered cells; the target indexers are
	// evaluated per cell (free variables bind to the cell coords), and
	// a cell is written when it is the one they address.
	d, err := e.beginDML(a, nil, outer)
	if err != nil {
		return err
	}
	defer d.finish()
	d.interpreted = true
	nd := len(a.Schema.Dims)
	return d.each(func(cur *Dataset) error {
		var keep []int
		var vals []value.Value
		env := &rowEnv{d: cur, outer: outer}
	rows:
		for env.row = 0; env.row < cur.NumRows(); env.row++ {
			sels, err := e.resolveIndexers(a, ref.Indexers, env)
			if err != nil {
				return err
			}
			for i, sl := range sels {
				if sl.point && sl.val != cur.Vecs[i].Get(env.row).I {
					continue rows
				}
			}
			v, err := e.Ev.Eval(s.Assign.Value, env)
			if err != nil {
				return err
			}
			if guarded && v.Null {
				continue
			}
			at := a.Schema.Attrs[ai]
			if v = coerceOrNull(v, at.Typ); at.Check != nil && !v.Null && !at.Check(v) {
				v = value.NewNull(at.Typ)
			}
			keep, vals = append(keep, env.row), append(vals, v)
		}
		if len(keep) == 0 {
			return nil
		}
		return d.scatter(cur.Gather(keep).Vecs[:nd], ai, bat.FromValues(a.Schema.Attrs[ai].Typ, vals))
	})
}

// --- INSERT ---------------------------------------------------------------------

func (e *Engine) execInsert(s *ast.Insert, outer expr.Env) error {
	if a, ok := e.mut.ArrayForWrite(s.Table); ok {
		return e.insertArray(a, s, outer)
	}
	if t, ok := e.mut.TableForWrite(s.Table); ok {
		return e.insertTable(t, s, outer)
	}
	return fmt.Errorf("INSERT: no such table or array %s", s.Table)
}

func (e *Engine) insertArray(a *array.Array, s *ast.Insert, outer expr.Env) error {
	if s.Select != nil {
		ds, err := e.execSelect(s.Select, outer)
		if err != nil {
			return err
		}
		return e.fillArrayFromDataset(a, ds)
	}
	nd, na := len(a.Schema.Dims), len(a.Schema.Attrs)
	for _, row := range s.Values {
		if len(row) > nd+na {
			return fmt.Errorf("INSERT INTO %s: too many values", a.Name)
		}
		vals := make([]value.Value, len(row))
		for i, x := range row {
			v, err := e.Ev.Eval(x, outer)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		coords := make([]int64, nd)
		for d := 0; d < nd; d++ {
			if d < len(vals) {
				coords[d] = vals[d].AsInt()
			}
		}
		if err := e.insertCell(a, coords, vals[nd:]); err != nil {
			return err
		}
	}
	return nil
}

// insertCell places one cell. If the target is occupied, rows and
// columns shift to make room (§3.2's spreadsheet semantics): every
// cell with coordinate >= the insert coordinate moves one step up in
// every dimension; for fixed-bound arrays, cells shifted past the
// bound are lost.
func (e *Engine) insertCell(a *array.Array, coords []int64, attrVals []value.Value) error {
	occupied := false
	for ai := range a.Schema.Attrs {
		if !a.Store.Get(coords, ai).Null {
			occupied = true
			break
		}
	}
	if occupied {
		if err := e.shiftForInsert(a, coords); err != nil {
			return err
		}
	}
	for ai := range a.Schema.Attrs {
		var v value.Value
		if ai < len(attrVals) {
			v = attrVals[ai]
		} else {
			v = defaultFor(a, coords, ai)
		}
		cv, err := value.Coerce(v, a.Schema.Attrs[ai].Typ)
		if err != nil {
			cv = value.NewNull(a.Schema.Attrs[ai].Typ)
		}
		if err := e.writeCell(a, coords, ai, cv); err != nil {
			return err
		}
	}
	return nil
}

func defaultFor(a *array.Array, coords []int64, ai int) value.Value {
	at := a.Schema.Attrs[ai]
	if at.DefaultFn != nil {
		return at.DefaultFn(coords)
	}
	return at.Default
}

// shiftForInsert moves every cell at or above at one step up along
// each dimension, into a fresh store; a cell moved past a fixed bound
// is lost.
func (e *Engine) shiftForInsert(a *array.Array, at []int64) error {
	out, err := e.newDMLScan(a, nil, nil, true).rebuild(a.Schema, func(dim int, c int64) (int64, bool) {
		if c >= at[dim] {
			c += max(a.Schema.Dims[dim].Step, 1)
		}
		return c, true
	}, nil)
	if err == nil {
		a.Store = out.a.Store
	}
	return err
}

// --- DELETE ---------------------------------------------------------------------

func (e *Engine) execDelete(s *ast.Delete, outer expr.Env) error {
	if a, ok := e.mut.ArrayForWrite(s.Table); ok {
		return e.deleteArray(a, s, outer)
	}
	if t, ok := e.mut.TableForWrite(s.Table); ok {
		return e.deleteTable(t, s, outer)
	}
	return fmt.Errorf("DELETE: no such table or array %s", s.Table)
}

// deleteArray implements the anchor-kill semantics of §3.2: matched
// cells are deleted; any complete dimension line whose cells are all
// deleted is taken out, relocating the remaining cells toward the
// lower bounds; vacated cells reset to the attribute defaults, and
// every other cell — a hole included — stays what it was. Only a dying
// line makes cells move: without one the matched cells are reset where
// they are.
func (e *Engine) deleteArray(a *array.Array, s *ast.Delete, outer expr.Env) error {
	d, err := e.beginDML(a, s.Where, outer)
	if err != nil {
		return err
	}
	defer d.finish()
	nd := len(a.Schema.Dims)
	// matched collects the coordinates of the matched cells, a typed
	// column per dimension; dead counts them per dimension line.
	matched := make([]bat.Vector, nd)
	dead := make([]map[int64]int64, nd)
	for dim := range dead {
		matched[dim] = bat.New(a.Schema.Dims[dim].Typ, 0)
		dead[dim] = make(map[int64]int64)
	}
	err = d.each(func(cur *Dataset) error {
		for dim := 0; dim < nd; dim++ {
			matched[dim] = bat.Concat(matched[dim], cur.Vecs[dim])
			countLines(dead[dim], cur.Vecs[dim])
		}
		return chargeBudget(e.budget, 8*int64(nd*cur.NumRows()))
	})
	if err != nil || d.matched == 0 {
		return err
	}
	// A line dies when the statement matched every cell on it. The lines
	// of a bounded array without dimension CHECKs all have the size the
	// other dimensions span, so most statements are cleared right here;
	// anything else counts the cells of every line in one more pass.
	sized, volume := true, int64(1)
	for _, spec := range a.Schema.Dims {
		sized = sized && spec.Bounded() && spec.Check == nil
		volume *= max(spec.Size(), 1)
	}
	suspect := !sized
	for dim, lines := range dead {
		for _, n := range lines {
			suspect = suspect || n >= volume/max(a.Schema.Dims[dim].Size(), 1)
		}
	}
	if !suspect {
		return d.reset(matched)
	}
	size := make([]map[int64]int64, nd)
	for dim := range size {
		size[dim] = make(map[int64]int64)
	}
	err = e.newDMLScan(a, nil, nil, true).each(func(cur *Dataset) error {
		for dim := range size {
			countLines(size[dim], cur.Vecs[dim])
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The surviving lines of every dimension close up onto its low end,
	// in order (an unbounded one from its first survivor); every cell
	// on them moves along, and the matched ones are reset where they
	// arrive.
	dying := false
	remap := make([]map[int64]int64, nd)
	for dim, spec := range a.Schema.Dims {
		remap[dim] = make(map[int64]int64)
		next := spec.Start
		for _, c := range slices.Sorted(maps.Keys(size[dim])) {
			if dead[dim][c] >= size[dim][c] {
				dying = true
				continue
			}
			if next == array.UnboundedLow {
				next = c
			}
			remap[dim][c] = next
			next += max(spec.Step, 1)
		}
	}
	if !dying {
		return d.reset(matched)
	}
	move := func(dim int, c int64) (int64, bool) {
		c, ok := remap[dim][c]
		return c, ok
	}
	out, err := e.newDMLScan(a, nil, nil, true).rebuild(a.Schema, move, nil)
	if err != nil {
		return err
	}
	_, moved := out.moveRows(matched, move)
	if err := out.reset(moved); err != nil {
		return err
	}
	a.Store = out.a.Store
	return nil
}

// countLines adds the cells of a coordinate column to the per-line
// counts. Coordinates repeat in runs along all but the fastest
// dimension, so a run is counted at a time.
func countLines(lines map[int64]int64, coords bat.Vector) {
	col := coords.(*bat.IntVector).Ints()
	for i := 0; i < len(col); {
		j := i + 1
		for j < len(col) && col[j] == col[i] {
			j++
		}
		lines[col[i]] += int64(j - i)
		i = j
	}
}

// reset sets every attribute of the cells at coords to its default
// (content CHECKs applied).
func (d *dmlScan) reset(coords []bat.Vector) error {
	a := d.a
	cell := make([]int64, len(coords))
	return d.scatterBlocks(coords, func(ai, _, _ int, block []bat.Vector) bat.Vector {
		at := a.Schema.Attrs[ai]
		vals := bat.Broadcast(coerceOrNull(defaultFor(a, cell, ai), at.Typ), at.Typ, block[0].Len())
		for i := 0; at.DefaultFn != nil && i < vals.Len(); i++ {
			for dim, c := range block {
				cell[dim] = c.(*bat.IntVector).Ints()[i]
			}
			vals.Set(i, coerceOrNull(at.DefaultFn(cell), at.Typ))
		}
		return checkColumn(vals, at, true)
	})
}

// scatterBlocks writes every attribute of the cells at coords, a block
// of rows [lo, hi) at a time with a poll between blocks; column gives
// attribute ai's values for the block.
func (d *dmlScan) scatterBlocks(coords []bat.Vector, column func(ai, lo, hi int, block []bat.Vector) bat.Vector) error {
	block := make([]bat.Vector, len(coords))
	for lo, n := 0, coords[0].Len(); lo < n; lo += vecBatchRows {
		if err := d.e.canceled(); err != nil {
			return err
		}
		hi := min(lo+vecBatchRows, n)
		for dim, c := range coords {
			block[dim] = bat.ViewRange(c, lo, hi)
		}
		for ai := range d.a.Schema.Attrs {
			if err := d.scatter(block, ai, column(ai, lo, hi, block)); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuild copies every cell d ranges over into a fresh, default-filled
// store of schema sch (whose first attributes are a's), each at the
// coordinates move gives it (moveRows), and returns the walk of the new
// array; extra, if any, runs on every batch after its cells are copied.
func (d *dmlScan) rebuild(sch array.Schema, move func(dim int, c int64) (int64, bool), extra func(out *dmlScan, cur *Dataset) error) (*dmlScan, error) {
	a := d.a
	st, err := d.e.newStore(a.Name, sch)
	if err != nil {
		return nil, err
	}
	out := &dmlScan{e: d.e, a: &array.Array{Name: a.Name, Schema: sch, Store: st}, out: st.(array.BulkWriter)}
	nd := len(a.Schema.Dims)
	return out, d.each(func(cur *Dataset) error {
		keep, moved := out.moveRows(cur.Vecs[:nd], move)
		if len(keep) == 0 {
			return nil
		}
		if len(keep) < cur.NumRows() || move != nil {
			cur = cur.Gather(keep)
			copy(cur.Vecs, moved)
		}
		for ai := range min(len(a.Schema.Attrs), len(sch.Attrs)) {
			if err := out.scatter(cur.Vecs[:nd], ai, cur.Vecs[nd+ai]); err != nil {
				return err
			}
		}
		if extra != nil {
			return extra(out, cur)
		}
		return nil
	})
}
