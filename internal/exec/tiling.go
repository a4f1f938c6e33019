package exec

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// This file is structural grouping (§4.4): GROUP BY over a parametrized
// series of array elements (tiles). Every valid anchor point in the
// array's dimensions yields one group of cells; cells denoted outside
// the index domain read as outer NULLs and are ignored by the
// aggregates. DISTINCT restricts anchors so tile boundaries are
// mutually exclusive.
//
// It runs on columns end to end. Anchors are selected vector-wise from
// the FROM scan's coordinate columns. The tiled array is read once into
// a window addressable by coordinates (tileWindow), next to one column
// per aggregate argument — an argument sees only its cell's own
// dimensions and attributes, so it is the attribute itself or its kernel
// program evaluated over the window. A tile is then just row numbers of
// the window: per morsel of anchors the tile cells are listed as (window
// row, anchor) pairs, in each anchor's cell order, and every aggregate
// folds its column over the pairs into states indexed by anchor
// (bat.FoldGrouped). Serial execution is the same code on a pool of one.

// tileFoldRows is how many (cell, anchor) pairs a worker lists before it
// folds them: large enough to amortize the per-aggregate dispatch, small
// enough to stay cache-resident next to the window.
const tileFoldRows = 8192

// execTiling evaluates SELECT ... GROUP BY [DISTINCT] <tiles> over the
// FROM scan ds (WHERE conjuncts not consumed by the scan in remaining).
func (e *Engine) execTiling(sel *ast.Select, ds *Dataset, sources []*source, remaining []ast.Expr, outer expr.Env, par int) (*Dataset, error) {
	gb := sel.GroupBy
	// Locate the tiled array from the first tile's base name.
	firstRef := gb.Tiles[0].Ref
	baseID, ok := firstRef.Base.(*ast.Ident)
	if !ok {
		return nil, fmt.Errorf("tile pattern must reference an array by name")
	}
	var src *source
	for _, s := range sources {
		if strings.EqualFold(s.name, baseID.Name) || strings.EqualFold(s.alias, baseID.Name) {
			src = s
			break
		}
	}
	var arr *array.Array
	qual := ""
	if src != nil {
		arr, qual = src.arr, src.qual()
	}
	if arr == nil {
		var err error
		if arr, err = e.resolveArrayBase(firstRef.Base, outer); err != nil {
			return nil, fmt.Errorf("tile pattern: %w", err)
		}
	}
	tp := &tilePlan{e: e, ctx: e.ctx(), arr: arr, outer: outer, cache: newDimValuesCache(e.ctx())}
	// Anchor variables: dimension names of the tiled array that appear
	// free (not outer-bound) in the tile indexer expressions.
	tp.anchorVars = e.collectAnchorVars(gb.Tiles, arr, outer)
	if err := tp.compileTiles(gb.Tiles); err != nil {
		return nil, err
	}
	// The anchor dimensions' columns in ds.
	anchorCols := make([][]int64, len(tp.anchorVars))
	for i, v := range tp.anchorVars {
		ci := ds.ColIndex(qual, v)
		if ci < 0 {
			ci = ds.ColIndex("", v)
		}
		if ci < 0 {
			return nil, fmt.Errorf("tile pattern: dimension %s not in scan", v)
		}
		anchorCols[i] = bat.Int64s(ds.Vecs[ci])
	}
	// A scan of the tiled array alone lists every cell once: anchored on
	// all of its dimensions its rows are distinct anchors already.
	// Anything else (matrix[x][*] anchors on distinct x values only, a
	// join repeats rows) needs the anchors deduplicated.
	var from *Dataset
	if len(sources) == 1 && src != nil && src.arr != nil {
		from = ds
	}
	distinctRows := from != nil && len(tp.anchorVars) == len(arr.Schema.Dims)
	anchorRows, err := e.tileAnchors(ds, tp, anchorCols, gb.Distinct, !distinctRows, andAll(remaining), par)
	if err != nil {
		return nil, err
	}
	tp.anchors = make([]int64, 0, len(anchorRows)*len(anchorCols))
	for _, r := range anchorRows {
		for _, col := range anchorCols {
			tp.anchors = append(tp.anchors, col[r])
		}
	}
	// Rewrite aggregates in items/having to placeholders.
	items := expandStars(sel.Items, ds.Cols)
	ac := &aggCollector{}
	rewritten := make([]ast.SelectItem, len(items))
	for i, it := range items {
		// Preserve the display name through the placeholder rewrite.
		rewritten[i] = ast.SelectItem{Expr: rewriteAggs(it.Expr, ac), Alias: itemName(it, i), DimQual: it.DimQual}
	}
	var havingRw ast.Expr
	if sel.Having != nil {
		havingRw = rewriteAggs(sel.Having, ac)
	}
	tp.calls = ac.calls
	if err := tp.fold(from, qual, len(anchorRows), par); err != nil {
		return nil, err
	}
	// One row per anchor: the source row it came from, then one column
	// per aggregate.
	inter := ds.Gather(anchorRows)
	inter.Cols = append([]Col(nil), ds.Cols...)
	for ci, c := range ac.calls {
		typ := aggType(c)
		vec := bat.New(typ, len(anchorRows))
		for g := range anchorRows {
			if c.Star {
				vec.Append(value.NewInt(tp.counts[ci][g]))
			} else {
				vec.Append(tp.states[ci][g].Result())
			}
		}
		inter.Cols = append(inter.Cols, Col{Name: ac.names[ci], Typ: typ})
		inter.Vecs = append(inter.Vecs, vec)
	}
	if havingRw != nil {
		keep, err := e.filterKeep(havingRw, inter, outer, par)
		if err != nil {
			return nil, err
		}
		inter = inter.Gather(keep)
	}
	out, err := e.projectWith(rewritten, inter, outer, par)
	if err != nil {
		return nil, err
	}
	return e.finishSelectSorted(sel, out, outer, false)
}

// tileAnchors selects the anchor rows of ds — the rows WHERE keeps, for
// DISTINCT tiles those aligned to the tile extent (a typed modulo on the
// anchor columns, before anything is keyed), and of rows sharing their
// anchor values (cols, one column per anchor variable) the first.
func (e *Engine) tileAnchors(ds *Dataset, tp *tilePlan, cols [][]int64, aligned, dedupe bool, where ast.Expr, par int) (rows []int, err error) {
	if where != nil {
		if rows, err = e.filterKeep(where, ds, tp.outer, par); err != nil {
			return nil, err
		}
	} else {
		rows = make([]int, ds.NumRows())
		for r := range rows {
			rows[r] = r
		}
	}
	if aligned && len(rows) > 0 {
		origin := make([]int64, len(cols))
		for i, col := range cols {
			origin[i] = col[rows[0]]
		}
		extent, err := tp.tileExtent(origin)
		if err != nil {
			return nil, err
		}
		kept := rows[:0]
		for k, r := range rows {
			if k&(keyBuildRows-1) == 0 {
				if err := e.canceled(); err != nil {
					return nil, err
				}
			}
			on := true
			for i, col := range cols {
				on = on && (extent[i] <= 1 || (col[r]-origin[i])%extent[i] == 0)
			}
			if on {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if !dedupe || len(rows) == 0 {
		return rows, nil
	}
	if len(cols) == 0 { // no anchor variable: one tile, shown with the first row
		return rows[:1], nil
	}
	keys := make([]bat.Vector, len(cols))
	for i, col := range cols {
		keys[i] = bat.NewIntVector(col).Gather(rows)
	}
	first, err := e.distinctRows(keys)
	if err != nil {
		return nil, err
	}
	for k, f := range first {
		rows[k] = rows[f]
	}
	return rows[:len(first)], nil
}

// tilePlan is one structural grouping compiled for execution: the tile
// pattern with its bounds resolved against the anchor variables, the
// anchors, the window over the tiled array and, per aggregate call, the
// column its argument folds from. It is immutable while workers fold,
// except for the per-anchor states, which anchors partition.
type tilePlan struct {
	e          *Engine
	ctx        context.Context
	arr        *array.Array
	outer      expr.Env
	anchorVars []string
	tiles      [][]selSpec
	// bindEnv is set when something per anchor goes through the
	// interpreter (a bound that is not anchor + constant, a pre-folded
	// argument) and so needs the anchor variables bound in an environment.
	bindEnv bool
	cache   *dimValuesCache
	anchors []int64 // one value per anchor variable, anchor by anchor

	calls []*ast.FuncCall
	win   *tileWindow
	// args holds the window column each call folds: nil for COUNT(*),
	// which counts pairs, and for the interpreted calls, which evaluate
	// their argument per cell.
	args       []bat.Vector
	interp     []bool
	anyInterp  bool
	mayPreFold []bool
	states     [][]bat.AggState // [call][anchor]; COUNT(*) keeps counts instead
	counts     [][]int64        // [call][anchor]
	preFolded  [][]bool         // [call][anchor]; nil for a call unless mayPreFold
	folded     atomic.Int64     // tile cells folded so far
}

// compileTiles aligns every tile element's indexers with the array's
// dimensions and resolves the bounds of the form anchor variable ±
// constant once; what is left is evaluated per anchor by the same
// resolver.
func (tp *tilePlan) compileTiles(tiles []ast.TileElement) error {
	anchor := func(name string) int {
		for i, v := range tp.anchorVars {
			if strings.EqualFold(v, name) {
				return i
			}
		}
		return -1
	}
	tp.tiles = make([][]selSpec, len(tiles))
	for ti, t := range tiles {
		specs, err := indexerSpecs(tp.arr, t.Ref.Indexers)
		if err != nil {
			return err
		}
		for di := range specs {
			sp := &specs[di]
			for _, b := range []*selBound{&sp.val, &sp.lo, &sp.hi, &sp.step} {
				if b.x == nil {
					continue
				}
				if b.av, b.c, b.lin = linearBound(b.x, anchor); !b.lin {
					tp.bindEnv = true
				}
			}
			// Workers only read the cache: list the order-only dimensions'
			// coordinates before they start.
			if sp.sel.sparse && !sp.sel.point {
				if _, err := tp.cache.values(tp.arr, di); err != nil {
					return err
				}
			}
		}
		tp.tiles[ti] = specs
	}
	return nil
}

// linearBound reads x as anchor[av] + c — or, with av < 0, the constant
// c — over integer literals, anchor variables, + and -.
func linearBound(x ast.Expr, anchor func(name string) int) (av int, c int64, ok bool) {
	switch t := x.(type) {
	case *ast.Literal:
		return -1, t.Val.I, !t.Val.Null && t.Val.Typ == value.Int
	case *ast.Ident:
		av = anchor(t.Name)
		return av, 0, t.Table == "" && av >= 0
	case *ast.Unary:
		if av, c, ok = linearBound(t.X, anchor); ok && av < 0 && t.Op == "-" {
			return -1, -c, true
		}
	case *ast.Binary:
		lav, lc, lok := linearBound(t.L, anchor)
		rav, rc, rok := linearBound(t.R, anchor)
		switch {
		case !lok || !rok:
		case t.Op == "+" && (lav < 0 || rav < 0):
			return max(lav, rav), lc + rc, true
		case t.Op == "-" && rav < 0:
			return lav, lc - rc, true
		}
	}
	return 0, 0, false
}

// tileWorker is the mutable per-worker scratch state of the fold.
type tileWorker struct {
	tp     *tilePlan
	anchor []int64 // the current anchor's values
	sels   []dimSel
	lists  [][]int64 // the current tile's coordinates per dimension
	bufs   [][]int64 // scratch lists is built in
	words  []uint64  // a hashed window's lookup key
	// rows and gids are the pending (window row, anchor) pairs.
	rows []int
	gids []int32
	// taken marks, per window row, the last anchor (+1) that listed it:
	// a multi-element pattern visits each cell once per anchor.
	taken     []int32
	anchorEnv *expr.MapEnv
	cellEnv   *expr.MapEnv
}

func (tp *tilePlan) newWorker() *tileWorker {
	nd := len(tp.arr.Schema.Dims)
	tw := &tileWorker{tp: tp, sels: make([]dimSel, nd),
		lists: make([][]int64, nd), bufs: make([][]int64, nd), words: make([]uint64, nd)}
	tw.anchorEnv = &expr.MapEnv{Vars: make(map[string]value.Value), Parent: tp.outer}
	tw.cellEnv = &expr.MapEnv{Vars: make(map[string]value.Value), Parent: tp.outer}
	if tp.win != nil && len(tp.tiles) > 1 {
		tw.taken = make([]int32, tp.win.cells.NumRows())
	}
	return tw
}

// bound evaluates one indexer bound at the current anchor.
func (tw *tileWorker) bound(b *selBound) (int64, error) {
	switch {
	case !b.lin:
		v, err := tw.tp.e.Ev.Eval(b.x, tw.anchorEnv)
		return v.AsInt(), err
	case b.av < 0:
		return b.c, nil
	}
	return tw.anchor[b.av] + b.c, nil
}

// resolve resolves tile element ti's selections at the current anchor
// into tw.sels.
func (tw *tileWorker) resolve(ti int) error {
	for di := range tw.sels {
		var err error
		if tw.sels[di], err = tw.tp.tiles[ti][di].resolve(tw.bound); err != nil {
			return err
		}
	}
	return nil
}

// setAnchor moves the worker to the anchor with the given values, one
// per anchor variable.
func (tw *tileWorker) setAnchor(vals []int64) {
	tw.anchor = vals
	if tw.tp.bindEnv {
		for i, v := range tw.tp.anchorVars {
			tw.anchorEnv.Vars[strings.ToLower(v)] = value.NewInt(vals[i])
		}
	}
}

// tileExtent measures, per anchor variable, how many index steps the
// tile spans when anchored at a sample anchor; DISTINCT steps anchors
// by this extent so tiles are mutually exclusive.
func (tp *tilePlan) tileExtent(sample []int64) ([]int64, error) {
	tw := tp.newWorker()
	tw.setAnchor(sample)
	// Per anchored dimension, find min/max covered coordinate.
	mins := make(map[int]int64)
	maxs := make(map[int]int64)
	for ti := range tp.tiles {
		if err := tw.resolve(ti); err != nil {
			return nil, err
		}
		for di, s := range tw.sels {
			lo, hi := s.lo, s.hi
			if s.point {
				lo, hi = s.val, s.val+1
			}
			if cur, ok := mins[di]; !ok || lo < cur {
				mins[di] = lo
			}
			if cur, ok := maxs[di]; !ok || hi > cur {
				maxs[di] = hi
			}
		}
	}
	extent := make([]int64, len(tp.anchorVars))
	for i, v := range tp.anchorVars {
		di := dimIndexFold(tp.arr, v)
		step := max(tp.arr.Schema.Dims[di].Step, 1)
		extent[i] = max((maxs[di]-mins[di])/step, 1) * step
	}
	return extent, nil
}

// collectAnchorVars finds the tiled array's dimension names used free
// in tile indexer expressions, in dimension declaration order.
func (e *Engine) collectAnchorVars(tiles []ast.TileElement, arr *array.Array, outer expr.Env) []string {
	found := make(map[string]bool)
	for _, t := range tiles {
		for _, ix := range t.Ref.Indexers {
			for _, x := range []ast.Expr{ix.Point, ix.Start, ix.Stop, ix.Step} {
				ast.Walk(x, func(n ast.Expr) bool {
					if id, ok := n.(*ast.Ident); ok && id.Table == "" {
						if dimIndexFold(arr, id.Name) >= 0 {
							if _, bound := outer.Lookup("", id.Name); !bound {
								found[strings.ToLower(id.Name)] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for _, d := range arr.Schema.Dims {
		if found[strings.ToLower(d.Name)] {
			out = append(out, d.Name)
		}
	}
	return out
}

// tileWindow is the tiled array's live cells, read once through the
// columnar scan — dimension columns, then the attribute columns the
// aggregates need — and addressable by coordinates: arithmetically over
// the bounding box when that is about as large as the cell count, through
// a key table on the dimension columns when it is much larger (sparse
// and unbounded arrays).
type tileWindow struct {
	cells *Dataset
	// Positional addressing: the cell at ordinals o of the bounding box
	// has its row at pos[Σ o[d]*stride[d]], -1 for a hole.
	lo, size, step, stride []int64
	pos                    []int32
	table                  *bat.KeyTable
}

// newTileWindow reads arr's attributes attrs (nil: all) and indexes the
// cells. from is the statement's FROM scan when that scans arr alone
// (columns qualified by qual): if it lists every live cell and carries
// the attributes, it is the window already; otherwise the array is
// scanned. Everything kept is charged to the statement budget.
func (e *Engine) newTileWindow(arr *array.Array, attrs []int, from *Dataset, qual string, par int) (*tileWindow, error) {
	cells := &Dataset{Cols: scanColsPruned(arr, "", attrs)}
	if from != nil && from.NumRows() == arr.Store.Len() {
		for _, c := range cells.Cols {
			if ci := from.ColIndex(qual, c.Name); ci >= 0 {
				cells.Vecs = append(cells.Vecs, from.Vecs[ci])
			}
		}
	}
	if len(cells.Vecs) != len(cells.Cols) {
		src := &scanSource{arr: arr, cols: cells.Cols, attrs: attrs, eff: effectiveSels(arr, nil, nil), budget: e.budget}
		var err error
		if cells, err = e.materializeScan(src, par); err != nil {
			return nil, err
		}
	}
	w := &tileWindow{cells: cells}
	n, nd := cells.NumRows(), len(arr.Schema.Dims)
	coords := make([][]int64, nd)
	for d := range coords {
		coords[d] = bat.Int64s(w.cells.Vecs[d])
	}
	if lo, hi, err := arr.BoundingBox(); err == nil {
		w.lo, w.size, w.step, w.stride = lo, make([]int64, nd), make([]int64, nd), make([]int64, nd)
		volume, limit := int64(1), 4*int64(n)+4096
		for d := nd - 1; d >= 0 && volume > 0; d-- {
			w.step[d] = max(arr.Schema.Dims[d].Step, 1)
			w.size[d] = (hi[d]-lo[d])/w.step[d] + 1
			w.stride[d] = volume
			if w.size[d] <= 0 || w.size[d] > limit/volume {
				volume = 0
			}
			volume *= w.size[d]
		}
		if volume > 0 {
			if err := chargeBudget(e.budget, 4*volume); err != nil {
				return nil, err
			}
			w.pos = make([]int32, volume)
			for i := range w.pos {
				w.pos[i] = -1
			}
		}
	cells:
		for i := 0; i < n && w.pos != nil; i++ {
			p := int64(0)
			for d, col := range coords {
				o, ok := w.offset(d, col[i])
				if !ok { // off the box's lattice: an off-step coordinate on an open-ended dimension
					w.pos = nil
					break cells
				}
				p += o
			}
			w.pos[p] = int32(i)
		}
		if w.pos != nil {
			return w, nil
		}
	}
	var err error
	w.table, err = e.groupKeyTable(cells.Vecs[:nd])
	return w, err
}

// offset returns coordinate v's contribution to a positional address;
// false when v lies outside the box or off its lattice.
func (w *tileWindow) offset(d int, v int64) (int64, bool) {
	o := v - w.lo[d]
	if st := w.step[d]; st > 1 {
		if o%st != 0 {
			return 0, false
		}
		o /= st
	}
	if o < 0 || o >= w.size[d] {
		return 0, false
	}
	return o * w.stride[d], true
}

// bindCalls builds the window and decides, per aggregate call, what it
// folds: a bare attribute of the tiled array (qualified by qual or not)
// is the window's column; an argument the kernel compiler accepts is
// evaluated over the window once, into a derived column; anything else —
// and an argument holding a range array reference, which may fold a
// slice per anchor (§7.3.4) — is interpreted per cell.
func (tp *tilePlan) bindCalls(from *Dataset, qual string, par int) error {
	e, arr := tp.e, tp.arr
	nd := len(arr.Schema.Dims)
	n := len(tp.calls)
	tp.args, tp.interp, tp.mayPreFold = make([]bat.Vector, n), make([]bool, n), make([]bool, n)
	direct := make([]int, n)
	progs := make([]*vecProg, n)
	// The attributes some argument names; the window carries all of them
	// instead once an argument is interpreted (its environment binds
	// every attribute).
	var attrs []int
	named := make([]bool, len(arr.Schema.Attrs))
	for ci, c := range tp.calls {
		direct[ci] = -1
		if c.Star {
			continue
		}
		if id, ok := c.Args[0].(*ast.Ident); ok && len(c.Args) == 1 && (id.Table == "" || strings.EqualFold(id.Table, qual)) {
			direct[ci] = attrIndexFold(arr, id.Name)
		}
		ast.Walk(c.Args[0], func(x ast.Expr) bool {
			switch t := x.(type) {
			case *ast.Ident:
				if ai := attrIndexFold(arr, t.Name); ai >= 0 {
					named[ai] = true
				}
			case *ast.ArrayRef:
				for _, ix := range t.Indexers {
					tp.mayPreFold[ci] = tp.mayPreFold[ci] || ix.Range
				}
			}
			return true
		})
	}
	attrs = []int{}
	for ai, used := range named {
		if used {
			attrs = append(attrs, ai)
		}
	}
	compile := func() (interp bool) {
		cols := scanColsPruned(arr, "", attrs)
		for ci, c := range tp.calls {
			if c.Star || direct[ci] >= 0 {
				continue
			}
			if !tp.mayPreFold[ci] {
				progs[ci] = e.vecCompile(c.Args[0], cols, false)
			}
			tp.interp[ci] = progs[ci] == nil
			interp = interp || tp.interp[ci]
		}
		return interp
	}
	if tp.anyInterp = compile(); tp.anyInterp {
		attrs = nil
		compile()
	}
	tp.preFolded = make([][]bool, n)
	for ci := range tp.calls {
		tp.bindEnv = tp.bindEnv || tp.mayPreFold[ci]
	}
	var err error
	if tp.win, err = e.newTileWindow(arr, attrs, from, qual, par); err != nil {
		return err
	}
	cells := tp.win.cells
	var derived int64
	for ci := range tp.calls {
		switch {
		case direct[ci] >= 0:
			for vi, ai := range array.AllAttrs(attrs, len(arr.Schema.Attrs)) {
				if ai == direct[ci] {
					tp.args[ci] = cells.Vecs[nd+vi]
				}
			}
		case progs[ci] != nil:
			col := bat.New(progs[ci].typ, cells.NumRows())
			for lo := 0; lo < cells.NumRows(); lo += vecBatchRows {
				if err := e.canceled(); err != nil {
					return err
				}
				col = bat.Concat(col, progs[ci].eval(cells.Vecs, lo, min(lo+vecBatchRows, cells.NumRows())))
			}
			tp.args[ci] = col
			derived += bat.ApproxBytes(col)
		}
	}
	return chargeBudget(e.budget, derived)
}

// fold builds the window, allocates one state per call and anchor and
// folds every anchor's tile cells into them, anchors shared out in
// morsels.
func (tp *tilePlan) fold(from *Dataset, qual string, anchors, par int) error {
	e := tp.e
	if anchors == 0 {
		return nil
	}
	if err := tp.bindCalls(from, qual, par); err != nil {
		return err
	}
	if err := chargeBudget(e.budget, aggStateBytes*int64(anchors)*int64(len(tp.calls))); err != nil {
		return err
	}
	tp.states, tp.counts = make([][]bat.AggState, len(tp.calls)), make([][]int64, len(tp.calls))
	for ci, c := range tp.calls {
		if c.Star {
			tp.counts[ci] = make([]int64, anchors)
			continue
		}
		tp.states[ci] = make([]bat.AggState, anchors)
		empty := *bat.NewAggState(c.Name)
		for g := range tp.states[ci] {
			tp.states[ci][g] = empty
		}
		if tp.mayPreFold[ci] {
			tp.preFolded[ci] = make([]bool, anchors)
		}
	}
	states := make([]*tileWorker, max(e.parallelism, 1)) // the pool is sized to the parallelism
	err := e.forEachMorsel(par, anchors, func(m parallelMorsel) error {
		if err := faultinject.Hit("tile.fold"); err != nil {
			return err
		}
		tw := states[m.Worker]
		if tw == nil {
			tw = tp.newWorker()
			states[m.Worker] = tw
		}
		for g := m.Lo; g < m.Hi; g++ {
			if err := tw.expand(int32(g)); err != nil {
				return err
			}
		}
		if err := tp.ctx.Err(); err != nil {
			return err
		}
		return tw.flush()
	})
	if pf := e.prof; pf != nil && err == nil {
		pf.Tiled.Cells.Add(tp.folded.Load())
		opBatches(&pf.Tiled, !tp.anyInterp).Add(1)
		kind := "hashed"
		if tp.win.pos != nil {
			kind = "positional"
		}
		pf.Tiled.SetDetail(fmt.Sprintf("anchors=%d window=%s", anchors, kind))
	}
	return err
}

// aggStateBytes is the budget estimate of one aggregate state.
const aggStateBytes = 160

// expand lists anchor g's tile cells as (window row, g) pairs, in tile
// element order and, within an element, in dimension-major coordinate
// order — the order the aggregates see them in.
func (tw *tileWorker) expand(g int32) error {
	tp := tw.tp
	nv := len(tp.anchorVars)
	tw.setAnchor(tp.anchors[int(g)*nv : int(g)*nv+nv])
	for ci, c := range tp.calls {
		if !tp.mayPreFold[ci] {
			continue
		}
		// An argument that evaluates to an array under the anchor
		// bindings (AVG(samples[time-2:time+1].data), §7.3.4) is
		// folded once per anchor over its cells.
		if v, err := tp.e.Ev.Eval(c.Args[0], tw.anchorEnv); err == nil && v.Typ == value.Array && !v.Null {
			if sub, ok := v.A.(*array.Array); ok && len(sub.Schema.Attrs) > 0 {
				//lint:allow ctxpoll bounded tile-window sub-array (a few cells per anchor), never chunk-scale
				sub.Store.Scan(func(_ []int64, vals []value.Value) bool {
					tp.states[ci][g].Add(vals[0])
					return true
				})
				tp.preFolded[ci][g] = true
			}
		}
	}
	for ti := range tp.tiles {
		if err := tw.resolve(ti); err != nil {
			return err
		}
		for di, s := range tw.sels {
			vs, err := selCoords(s, tp.arr, di, tp.cache, tw.bufs[di])
			if err != nil {
				return err
			}
			if tw.lists[di] = vs; !s.sparse || s.point {
				tw.bufs[di] = vs
			}
		}
		if err := tw.walk(0, 0, g); err != nil {
			return err
		}
	}
	return nil
}

// walk lists the cells of the cross product of tw.lists from dimension d
// on; base is the positional address accumulated over the dimensions
// before d.
func (tw *tileWorker) walk(d int, base int64, g int32) error {
	w := tw.tp.win
	last := d == len(tw.lists)-1
	for _, v := range tw.lists[d] {
		var o int64
		if w.pos != nil {
			var ok bool
			if o, ok = w.offset(d, v); !ok {
				continue
			}
		} else {
			tw.words[d] = uint64(v)
		}
		if !last {
			if err := tw.walk(d+1, base+o, g); err != nil {
				return err
			}
			continue
		}
		var r int32
		if w.pos != nil {
			r = w.pos[base+o]
		} else {
			r = w.table.LookupWords(tw.words)
		}
		if r < 0 {
			continue
		}
		if tw.taken != nil {
			if tw.taken[r] == g+1 {
				continue
			}
			tw.taken[r] = g + 1
		}
		tw.rows, tw.gids = append(tw.rows, int(r)), append(tw.gids, g)
	}
	if last && len(tw.rows) >= tileFoldRows {
		if err := tw.tp.ctx.Err(); err != nil {
			return err
		}
		return tw.flush()
	}
	return nil
}

// flush folds the pending pairs into the states: per call one typed
// fold of its column or, for the interpreted calls, one evaluation per
// pair under the cell's own environment (its dimensions and attributes
// over the statement's outer environment).
func (tw *tileWorker) flush() error {
	tp := tw.tp
	cells := tp.win.cells
	for ci, c := range tp.calls {
		switch {
		case c.Star:
			for _, g := range tw.gids {
				tp.counts[ci][g]++
			}
		case tp.args[ci] != nil:
			bat.FoldGrouped(tp.states[ci], tw.gids, tp.args[ci], tw.rows, len(tw.rows))
		}
	}
	for k := 0; k < len(tw.rows) && tp.anyInterp; k++ {
		r, g := tw.rows[k], tw.gids[k]
		for c, col := range cells.Cols {
			tw.cellEnv.Vars[strings.ToLower(col.Name)] = cells.Vecs[c].Get(r)
		}
		for ci, c := range tp.calls {
			if !tp.interp[ci] || tp.preFolded[ci] != nil && tp.preFolded[ci][g] {
				continue
			}
			v, err := tp.e.Ev.Eval(c.Args[0], tw.cellEnv)
			if err != nil {
				return err
			}
			tp.states[ci][g].Add(v)
		}
	}
	tp.folded.Add(int64(len(tw.rows)))
	tw.rows, tw.gids = tw.rows[:0], tw.gids[:0]
	return nil
}
