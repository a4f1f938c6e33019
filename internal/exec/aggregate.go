package exec

import (
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/sql/ast"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// This file is value grouping and plain aggregation: GROUP BY <exprs>
// (or the single implicit group of an aggregate without GROUP BY).
// Rows fold into partial states — one per scan chunk when the input is
// a single catalog array (aggScanSelect: nothing is materialized, the
// filter's selection vector feeds typed folds), one per morsel when it
// is an already materialized dataset (execValueGroupBy) — and the
// partials merge in chunk or morsel order. First-encounter group
// order, the source row a group shows for its non-aggregated columns
// and the order of float additions are therefore a pure function of
// the partition, never of which worker ran what.

// groupAgg is the compiled grouping of one SELECT: the key expressions,
// the aggregate calls collected out of the target list and HAVING
// (which are rewritten to read placeholder columns), and — when every
// key and every aggregate argument compiles — their kernel programs.
type groupAgg struct {
	e     *Engine
	cols  []Col // the columns input rows arrive in
	outer expr.Env
	keys  []ast.Expr
	ac    aggCollector
	items []ast.SelectItem // target list over group columns + placeholders
	// having is the rewritten HAVING; nil when there is none.
	having ast.Expr
	// keyProgs/argProgs are set together (vec) or not at all; argProgs
	// has a nil entry per COUNT(*).
	keyProgs, argProgs []*vecProg
	vec                bool
	// distinct marks a DISTINCT aggregate call: partial states of those
	// cannot merge (two partitions may have counted the same value), so
	// the input must fold into a single partial.
	distinct bool
}

// compileGroupAgg rewrites the target list and HAVING and compiles the
// key and argument programs against cols. vecs is the materialized
// input when there is one: names then bind rowEnv-style (strict — the
// input may be a join) and the vectors must back the programs; a scan
// (nil) binds first-match and is typed by construction.
func (e *Engine) compileGroupAgg(sel *ast.Select, items []ast.SelectItem, having ast.Expr, cols []Col, outer expr.Env, vecs []bat.Vector) *groupAgg {
	ga := &groupAgg{e: e, cols: cols, outer: outer, vec: true}
	items = expandStars(items, cols)
	ga.items = make([]ast.SelectItem, len(items))
	for i, it := range items {
		// Preserve the display name through the placeholder rewrite.
		ga.items[i] = ast.SelectItem{Expr: rewriteAggs(it.Expr, &ga.ac), Alias: itemName(it, i), DimQual: it.DimQual}
	}
	if having != nil {
		ga.having = rewriteAggs(having, &ga.ac)
	}
	if sel.GroupBy != nil {
		ga.keys = sel.GroupBy.Exprs
	}
	compile := func(x ast.Expr) *vecProg {
		p := e.vecCompile(x, cols, vecs != nil)
		if p == nil || (vecs != nil && !p.validFor(vecs)) {
			ga.vec = false
		}
		return p
	}
	ga.keyProgs = make([]*vecProg, len(ga.keys))
	for i, k := range ga.keys {
		ga.keyProgs[i] = compile(k)
	}
	ga.argProgs = make([]*vecProg, len(ga.ac.calls))
	for i, c := range ga.ac.calls {
		ga.distinct = ga.distinct || c.Distinct
		if !c.Star {
			ga.argProgs[i] = compile(c.Args[0])
		}
	}
	// DISTINCT sets are kept by the row fold only.
	ga.vec = ga.vec && !ga.distinct
	return ga
}

// aggPartial holds the groups one partition of the input produced, in
// first-encounter order: per group its encoded key and the source row
// that opened it, per aggregate call the groups' states.
type aggPartial struct {
	index map[string]int32
	// ints/nullGroup index a single fixed-width typed key without
	// encoding it per row.
	ints      map[uint64]int32
	nullGroup int32
	keys      []string
	first     [][]value.Value
	states    [][]bat.AggState // [call][group]
	counts    [][]int64        // [call][group], COUNT(*)
	seen      [][]map[string]bool
	gids      []int32 // scratch: the group of each row of the batch in hand
	keyBuf    []byte
}

func (ga *groupAgg) newPartial() *aggPartial {
	n := len(ga.ac.calls)
	return &aggPartial{index: make(map[string]int32), nullGroup: -1,
		states: make([][]bat.AggState, n), counts: make([][]int64, n), seen: make([][]map[string]bool, n)}
}

// groupStateBytes is the budget estimate per group: a hash map entry
// plus one accumulator per aggregate call.
func (ga *groupAgg) groupStateBytes(p *aggPartial) int64 {
	return int64(len(p.keys)) * int64(64+80*len(ga.ac.calls))
}

// open adds a group for key, showing row of in for its source columns.
func (ga *groupAgg) open(p *aggPartial, key string, in *Dataset, row int) int32 {
	g := int32(len(p.keys))
	p.keys = append(p.keys, key)
	var first []value.Value
	if in != nil {
		first = in.Row(row)
	}
	p.first = append(p.first, first)
	for ci, c := range ga.ac.calls {
		p.states[ci] = append(p.states[ci], *bat.NewAggState(c.Name))
		p.counts[ci] = append(p.counts[ci], 0)
		if c.Distinct {
			p.seen[ci] = append(p.seen[ci], make(map[string]bool))
		}
	}
	return g
}

// lookup finds or opens the group of the encoded key in p.keyBuf.
func (ga *groupAgg) lookup(p *aggPartial, in *Dataset, row int) int32 {
	g, ok := p.index[string(p.keyBuf)]
	if !ok {
		g = ga.open(p, string(p.keyBuf), in, row)
		p.index[p.keys[g]] = g
	}
	return g
}

// fold adds n rows of in to p: rows lo+sel[k] when sel is given (the
// filter's selection, relative to lo), rows [lo, hi) otherwise.
func (ga *groupAgg) fold(p *aggPartial, in *Dataset, lo, hi int, sel []int) error {
	n := hi - lo
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return nil
	}
	if !ga.vec {
		return ga.foldRows(p, in, lo, sel, n)
	}
	var gids []int32
	if len(ga.keys) > 0 {
		if cap(p.gids) < n {
			p.gids = make([]int32, n)
		}
		gids = p.gids[:n]
		ga.assignGroups(p, in, lo, hi, sel, gids)
	} else if len(p.keys) == 0 {
		first := lo
		if sel != nil {
			first += sel[0]
		}
		ga.open(p, "", in, first)
	}
	for ci, c := range ga.ac.calls {
		if c.Star {
			if gids == nil {
				p.counts[ci][0] += int64(n)
			}
			for _, g := range gids {
				p.counts[ci][g]++
			}
			continue
		}
		bat.FoldGrouped(p.states[ci], gids, ga.argProgs[ci].eval(in.Vecs, lo, hi), sel, n)
	}
	return nil
}

// assignGroups evaluates the key programs over [lo, hi) and writes the
// group of each folded row into gids, opening groups as keys first
// appear. One Int, Timestamp or Float key probes a map of raw bits;
// anything else probes by the encoded key tuple.
func (ga *groupAgg) assignGroups(p *aggPartial, in *Dataset, lo, hi int, sel []int, gids []int32) {
	keyVecs := make([]bat.Vector, len(ga.keyProgs))
	for i, kp := range ga.keyProgs {
		keyVecs[i] = kp.eval(in.Vecs, lo, hi)
	}
	var ints []int64
	var floats []float64
	if len(keyVecs) == 1 {
		switch kv := keyVecs[0].(type) {
		case *bat.IntVector:
			ints = kv.Ints()
		case *bat.FloatVector:
			floats = kv.Floats()
		}
	}
	raw := ints != nil || floats != nil
	if raw && p.ints == nil {
		p.ints = make(map[uint64]int32)
	}
	hasNulls := raw && bat.NullCount(keyVecs[0]) > 0
	for k := range gids {
		i := k // position in the key vectors
		if sel != nil {
			i = sel[k]
		}
		if !raw {
			p.keyBuf = p.keyBuf[:0]
			for _, kv := range keyVecs {
				p.keyBuf = bat.AppendKey(p.keyBuf, kv.Get(i))
			}
			gids[k] = ga.lookup(p, in, lo+i)
			continue
		}
		kv := keyVecs[0]
		if hasNulls && kv.IsNull(i) {
			if p.nullGroup < 0 {
				p.nullGroup = ga.open(p, string(bat.AppendKey(nil, kv.Get(i))), in, lo+i)
			}
			gids[k] = p.nullGroup
			continue
		}
		var b uint64
		if ints != nil {
			b = uint64(ints[i])
		} else {
			b = bat.FloatKeyBits(floats[i])
		}
		g, ok := p.ints[b]
		if !ok {
			g = ga.open(p, string(bat.AppendKey(nil, kv.Get(i))), in, lo+i)
			p.ints[b] = g
		}
		gids[k] = g
	}
}

// foldRows is fold through the interpreter, one row at a time.
func (ga *groupAgg) foldRows(p *aggPartial, in *Dataset, lo int, sel []int, n int) error {
	e := ga.e
	env := &rowEnv{d: in, outer: ga.outer}
	for k := 0; k < n; k++ {
		env.row = lo + k
		if sel != nil {
			env.row = lo + sel[k]
		}
		p.keyBuf = p.keyBuf[:0]
		for _, key := range ga.keys {
			v, err := e.Ev.Eval(key, env)
			if err != nil {
				return err
			}
			p.keyBuf = bat.AppendKey(p.keyBuf, v)
		}
		g := ga.lookup(p, in, env.row)
		for ci, c := range ga.ac.calls {
			if c.Star {
				p.counts[ci][g]++
				continue
			}
			v, err := e.Ev.Eval(c.Args[0], env)
			if err != nil {
				return err
			}
			if c.Distinct {
				k := string(bat.AppendKey(nil, v))
				if p.seen[ci][g][k] {
					continue
				}
				p.seen[ci][g][k] = true
			}
			p.states[ci][g].Add(v)
		}
	}
	return nil
}

// merge folds o's groups into p, in o's order: a key p has not seen
// opens a group after p's own (keeping o's source row), a known one
// merges states. Merging partials in partition order thus reproduces
// the first-encounter order of one pass over the whole input.
func (ga *groupAgg) merge(p, o *aggPartial) {
	for og, key := range o.keys {
		g, ok := p.index[key]
		if !ok {
			g = ga.open(p, key, nil, 0)
			p.index[key] = g
			p.first[g] = o.first[og]
		}
		for ci := range ga.ac.calls {
			p.states[ci][g].Merge(&o.states[ci][og])
			p.counts[ci][g] += o.counts[ci][og]
		}
	}
}

// mergeAll merges partition partials in order (nil entries are
// partitions that never ran).
func (ga *groupAgg) mergeAll(parts []*aggPartial) *aggPartial {
	out := ga.newPartial()
	for _, p := range parts {
		if p != nil {
			ga.merge(out, p)
		}
	}
	return out
}

// finish turns the merged groups into the statement's rows: one
// intermediate row per group — the source columns of the row that
// opened it, then one placeholder column per aggregate call — filtered
// by HAVING and projected through the rewritten target list.
func (ga *groupAgg) finish(p *aggPartial) (*Dataset, error) {
	// Aggregates over zero rows with no GROUP BY still yield one row.
	if len(p.keys) == 0 && len(ga.keys) == 0 {
		ga.open(p, "", nil, 0)
	}
	interCols := append([]Col(nil), ga.cols...)
	for i, name := range ga.ac.names {
		interCols = append(interCols, Col{Name: name, Typ: aggType(ga.ac.calls[i])})
	}
	inter := NewDataset(interCols)
	row := make([]value.Value, len(interCols))
	for g := range p.keys {
		for c := range ga.cols {
			row[c] = value.NewNull(ga.cols[c].Typ)
		}
		copy(row, p.first[g])
		for ci, c := range ga.ac.calls {
			if c.Star {
				row[len(ga.cols)+ci] = value.NewInt(p.counts[ci][g])
			} else {
				row[len(ga.cols)+ci] = p.states[ci][g].Result()
			}
		}
		inter.Append(row)
	}
	if ga.having != nil {
		keep, err := ga.e.filterKeep(ga.having, inter, ga.outer, 1)
		if err != nil {
			return nil, err
		}
		inter = inter.Gather(keep)
	}
	return ga.e.projectWith(ga.items, inter, ga.outer, 1)
}

// execValueGroupBy groups an already materialized dataset (joins,
// tables, derived tables, NEXT rewrites, DISTINCT aggregates). With
// par > 1 each morsel of rows folds into a partial of its own and the
// partials merge in morsel order.
func (e *Engine) execValueGroupBy(sel *ast.Select, items []ast.SelectItem, having ast.Expr, ds *Dataset, outer expr.Env, par int) (*Dataset, error) {
	ga := e.compileGroupAgg(sel, items, having, ds.Cols, outer, ds.Vecs)
	n := ds.NumRows()
	foldRange := func(p *aggPartial, lo, hi int, poll bool) error {
		for blo := lo; blo < hi; blo += vecBatchRows {
			if poll {
				if err := e.canceled(); err != nil {
					return err
				}
			}
			if err := ga.fold(p, ds, blo, min(blo+vecBatchRows, hi), nil); err != nil {
				return err
			}
		}
		return chargeBudget(e.budget, ga.groupStateBytes(p))
	}
	if ga.distinct || par <= 1 || e.pool == nil || n < 2*e.pool.Workers() {
		p := ga.newPartial()
		if err := foldRange(p, 0, n, true); err != nil {
			return nil, err
		}
		return ga.finish(p)
	}
	morsel := e.pool.MorselFor(n)
	partials := make([]*aggPartial, (n+morsel-1)/morsel)
	err := e.pool.ForEachCtx(e.ctx(), n, morsel, func(m parallelMorsel) error {
		p := ga.newPartial()
		partials[m.Lo/morsel] = p
		return foldRange(p, m.Lo, m.Hi, false)
	})
	if err != nil {
		return nil, err
	}
	return ga.finish(ga.mergeAll(partials))
}

// aggScanSelect runs SELECT <aggs> … [WHERE] [GROUP BY <exprs>]
// [HAVING] over a single catalog array chunk-wise, without ever
// materializing the scan: per column batch, the residual filter yields
// a selection vector and the surviving rows fold into the chunk's
// partial; the partials merge in chunk order. handled is false when
// the statement is not of that shape (tiling, DISTINCT aggregates,
// joins, engine-state expressions, single-cell reads).
func (e *Engine) aggScanSelect(sel *ast.Select, env *baseEnv) (*Dataset, bool, error) {
	if sel.GroupBy != nil && len(sel.GroupBy.Tiles) > 0 {
		return nil, false, nil
	}
	grouped := sel.GroupBy != nil && len(sel.GroupBy.Exprs) > 0 || sel.Having != nil && ast.HasAggregate(sel.Having)
	for _, it := range sel.Items {
		grouped = grouped || it.Expr != nil && ast.HasAggregate(it.Expr)
	}
	if !grouped {
		return nil, false, nil
	}
	sp, ok, err := e.compileScan(sel, env)
	if err != nil || !ok || allPoint(sp.eff) {
		return nil, false, err
	}
	ga := e.compileGroupAgg(sel, sel.Items, sel.Having, sp.cols, env, nil)
	if ga.distinct {
		return nil, false, nil
	}
	filter := e.vecCompile(sp.where, sp.cols, false)
	chunks, err := e.scanChunks(&sp.scanSource)
	if err != nil {
		return nil, true, err
	}
	pf := sp.prof
	partials := make([]*aggPartial, len(chunks))
	ctx := e.ctx()
	err = e.forEachChunk(ctx, sp.par, len(chunks), func(ci int) error {
		p := ga.newPartial()
		var foldErr error
		var cells, kept int64
		var filtering, folding time.Duration
		err := e.scanChunk(ctx, &sp.scanSource, chunks[ci], func(in *Dataset) bool {
			n := in.NumRows()
			cells += int64(n)
			t0 := time.Now()
			var keep []int
			if sp.where != nil {
				if keep, foldErr = e.batchFilter(sp.where, filter, in, sp.outer); foldErr != nil {
					return false
				}
				n = len(keep)
			}
			t1 := time.Now()
			foldErr = ga.fold(p, in, 0, in.NumRows(), keep)
			kept += int64(n)
			filtering += t1.Sub(t0)
			folding += time.Since(t1)
			return foldErr == nil
		})
		if err == nil {
			err = foldErr
		}
		if err != nil {
			return err
		}
		partials[ci] = p
		e.metrics().scanRows.Add(kept)
		if pf != nil {
			if sp.where != nil {
				pf.Filter.AddNanos(filtering)
				pf.Filter.RowsIn.Add(cells)
				pf.Filter.RowsOut.Add(kept)
				opBatches(&pf.Filter, filter != nil).Add(1)
			}
			pf.Aggregate.AddNanos(folding)
			pf.Aggregate.RowsIn.Add(kept)
			opBatches(&pf.Aggregate, ga.vec).Add(1)
		}
		return chargeBudget(sp.budget, ga.groupStateBytes(p))
	})
	if err != nil {
		return nil, true, err
	}
	var t0 time.Time
	if pf != nil {
		t0 = time.Now()
	}
	out, err := ga.finish(ga.mergeAll(partials))
	if err != nil {
		return nil, true, err
	}
	if pf != nil {
		pf.Aggregate.AddNanos(time.Since(t0))
		pf.Aggregate.RowsOut.Add(int64(out.NumRows()))
	}
	out, err = e.finishSelectSorted(sel, out, env, false)
	return out, true, err
}

// opBatches picks the batch counter matching how an operator ran.
func opBatches(o *telemetry.OpStats, vec bool) *atomic.Int64 {
	if vec {
		return &o.VecBatches
	}
	return &o.RowBatches
}

// batchFilter evaluates the residual WHERE over one batch and returns
// the positions of the passing rows: through the compiled predicate
// when there is one, through the interpreter otherwise.
func (e *Engine) batchFilter(where ast.Expr, prog *vecProg, in *Dataset, outer expr.Env) ([]int, error) {
	n := in.NumRows()
	if prog != nil {
		keep := prog.filterSel(in.Vecs, 0, n)
		if keep == nil {
			keep = []int{}
		}
		return keep, nil
	}
	keep := make([]int, 0, n)
	env := &rowEnv{d: in, outer: outer}
	for r := 0; r < n; r++ {
		env.row = r
		ok, err := e.Ev.EvalBool(where, env)
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, r)
		}
	}
	return keep, nil
}
