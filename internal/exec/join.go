package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// This file is the hash-join operator behind JOIN ... ON. The ON
// conjunction splits into cross-side equality pairs (the hash key) and
// a residual predicate. A pair is hashed only when hashing its two
// columns matches exactly the rows `=` holds for (bat.JoinKeyKind):
// columns of one integral type by value, any other numeric pairing as
// the float64 values value.Compare compares (so 1 = 1.0 and -0.0 = 0),
// strings by their bytes; a pair `=` never or not transitively holds
// for — VARCHAR against INTEGER, opaque columns, a column holding NaN —
// joins the residual instead. The smaller input becomes the build side
// — both inputs are materialized at this point, so "estimated
// cardinality" is exact — and the probe streams against one
// bat.KeyTable: keys are extracted as typed words (in parallel morsels
// when the statement runs parallel), the table's power-of-two
// partitions build independently, and probe morsels emit (left, right)
// row-index pairs that merge in morsel order. Output is byte-identical
// at any parallelism: rows appear in (left row, right row)
// lexicographic order, restored by a counting sort when the build side
// was the left input. Final columns materialize with vectorized
// gathers instead of per-cell boxing.

// keyBuildRows is how many rows a key table takes in between two polls
// of the statement context.
const keyBuildRows = 1 << 16

// joinKeys extracts the typed keys of ds over the key columns cols and
// charges them to the statement budget (one charge per side).
func (e *Engine) joinKeys(ds *Dataset, cols []int, kinds []bat.KeyKind, par int) (*bat.RowKeys, error) {
	vecs := make([]bat.Vector, len(cols))
	for i, c := range cols {
		vecs[i] = ds.Vecs[c]
	}
	keys := bat.NewRowKeys(vecs, kinds, false)
	err := e.forEachMorsel(par, keys.Len(), func(m parallelMorsel) error {
		keys.Fill(m.Lo, m.Hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, chargeBudget(e.budget, keys.Bytes())
}

// buildJoinTable builds the hash table of the build side's keys, one
// partition per worker (rounded up to a power of two).
func (e *Engine) buildJoinTable(keys *bat.RowKeys, par int) (*bat.KeyTable, int, error) {
	if err := faultinject.Hit("join.build"); err != nil {
		return nil, 0, err
	}
	nparts := 1
	if par > 1 && e.pool != nil {
		nparts = 1 << bits.Len(uint(e.pool.Workers()-1))
	}
	table := bat.NewKeyTable(keys, nparts)
	if err := chargeBudget(e.budget, table.Bytes()); err != nil {
		return nil, 0, err
	}
	ctx := e.ctx()
	build := func(p int) error {
		for lo := 0; lo < keys.Len(); lo += keyBuildRows {
			if err := ctx.Err(); err != nil {
				return err
			}
			table.Build(p, lo, min(lo+keyBuildRows, keys.Len()))
		}
		return nil
	}
	return table, nparts, e.forEachChunk(ctx, par, nparts, build)
}

// join executes JOIN ... ON with a partitioned hash join when the
// condition has cross-side equalities that hash; otherwise it filters
// the Cartesian product. par > 1 parallelizes key extraction, partition
// build and probe over the morsel pool; results are byte-identical at
// any parallelism.
func (e *Engine) join(l, r *Dataset, j *ast.Join, outer expr.Env, par int) (*Dataset, error) {
	if j.Kind == "CROSS" || j.On == nil {
		return crossJoin(l, r), nil
	}
	pf := e.prof
	var t0 time.Time
	if pf != nil {
		t0 = time.Now()
		pf.Join.RowsIn.Add(int64(l.NumRows() + r.NumRows()))
	}
	// The hashable cross-side equalities (left column, right column, how
	// the two key) and everything else.
	var lcols, rcols []int
	var kinds []bat.KeyKind
	var residual []ast.Expr
	for _, c := range splitConjuncts(j.On) {
		if li, ri, kind, ok := equiPair(c, l, r); ok {
			lcols, rcols, kinds = append(lcols, li), append(rcols, ri), append(kinds, kind)
		} else {
			residual = append(residual, c)
		}
	}
	cols := append(append([]Col(nil), l.Cols...), r.Cols...)
	// keep evaluates the residual on the row pair (li, ri), boxed into
	// the caller's env.
	nl := len(l.Cols)
	keep := func(env *valuesEnv, li, ri int) (bool, error) {
		for c := range l.Cols {
			env.vals[c] = l.Vecs[c].Get(li)
		}
		for c := range r.Cols {
			env.vals[nl+c] = r.Vecs[c].Get(ri)
		}
		for _, rc := range residual {
			if ok, err := e.Ev.EvalBool(rc, env); err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	var leftIdx, rightIdx []int
	detail := "nested loop"
	if len(kinds) == 0 {
		// Nothing hashes: filter the cross product row by row.
		env := &valuesEnv{cols: cols, vals: make([]value.Value, len(cols)), outer: outer}
		for i := 0; i < l.NumRows(); i++ {
			if err := e.canceled(); err != nil {
				return nil, err
			}
			for j2 := 0; j2 < r.NumRows(); j2++ {
				ok, err := keep(env, i, j2)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx, rightIdx = append(leftIdx, i), append(rightIdx, j2)
				}
			}
		}
	} else {
		// Build-side choice by cardinality: the smaller input builds the
		// hash table, the larger streams through it. Both inputs are
		// materialized here, so the estimate is exact; ties keep the
		// right-side build. EXPLAIN's cost annotation applies the same rule
		// to its zone-map row estimates.
		buildLeft := l.NumRows() < r.NumRows()
		bd, pd := r, l
		bcols, pcols := rcols, lcols
		if buildLeft {
			bd, pd = l, r
			bcols, pcols = lcols, rcols
		}
		bkeys, err := e.joinKeys(bd, bcols, kinds, par)
		if err != nil {
			return nil, err
		}
		pkeys, err := e.joinKeys(pd, pcols, kinds, par)
		if err != nil {
			return nil, err
		}
		table, nparts, err := e.buildJoinTable(bkeys, par)
		if err != nil {
			return nil, err
		}
		// Probe. Each morsel collects its (probe, build) index pairs
		// locally; morsel buffers merge in morsel order, so the pair stream
		// is in ascending probe-row order regardless of parallelism. The
		// residual predicate filters during the probe (each morsel binds
		// its own row buffer).
		pn := pd.NumRows()
		morsel := e.morselFor(pn)
		pparts := make([][]int, (pn+morsel-1)/morsel)
		bparts := make([][]int, len(pparts))
		err = e.forEachMorsel(par, pn, func(m parallelMorsel) error {
			var env *valuesEnv
			if len(residual) > 0 {
				env = &valuesEnv{cols: cols, vals: make([]value.Value, len(cols)), outer: outer}
			}
			pi := make([]int, 0, m.Hi-m.Lo)
			bi := make([]int, 0, m.Hi-m.Lo)
			for i := m.Lo; i < m.Hi; i++ {
				for b := table.Lookup(pkeys, i); b >= 0; b = table.Next(b) {
					if env != nil {
						li, ri := i, int(b)
						if buildLeft {
							li, ri = ri, li
						}
						if ok, err := keep(env, li, ri); err != nil {
							return err
						} else if !ok {
							continue
						}
					}
					pi, bi = append(pi, i), append(bi, int(b))
				}
			}
			pparts[m.Lo/morsel], bparts[m.Lo/morsel] = pi, bi
			return nil
		})
		if err != nil {
			return nil, err
		}
		leftIdx, rightIdx = slices.Concat(pparts...), slices.Concat(bparts...)
		if buildLeft {
			// Pairs arrived in (right asc, left asc) order; restore the
			// (left asc, right asc) output contract with a stable counting
			// sort on the left row index — O(pairs + left rows), and stable,
			// so right indexes stay ascending within one left row.
			leftIdx, rightIdx = countingSortPairs(rightIdx, leftIdx, l.NumRows())
		}
		if pf != nil {
			pf.Join.Chunks.Add(int64(nparts))
			key := fmt.Sprintf("%d-word", bkeys.Width())
			if bkeys.Width() == 0 {
				key = "encoded"
			}
			detail = fmt.Sprintf("build_rows=%d keys=%d key=%s", bd.NumRows(), table.Distinct(), key)
		}
	}
	out := &Dataset{Cols: cols, Vecs: make([]bat.Vector, len(cols))}
	for c := range l.Cols {
		out.Vecs[c] = l.Vecs[c].Gather(leftIdx)
	}
	for c := range r.Cols {
		out.Vecs[nl+c] = r.Vecs[c].Gather(rightIdx)
	}
	if err := chargeBudget(e.budget, approxDatasetBytes(out)); err != nil {
		return nil, err
	}
	if pf != nil {
		pf.Join.AddNanos(time.Since(t0))
		pf.Join.RowsOut.Add(int64(out.NumRows()))
		opBatches(&pf.Join, len(kinds) > 0).Add(1)
		pf.Join.SetDetail(detail)
	}
	return out, nil
}

// equiPair recognizes a conjunct of the form <left column> = <right
// column> (either way round) whose two columns hash to `=` equality.
func equiPair(c ast.Expr, l, r *Dataset) (li, ri int, kind bat.KeyKind, ok bool) {
	b, ok := c.(*ast.Binary)
	if !ok || b.Op != "=" {
		return 0, 0, 0, false
	}
	lid, lok := b.L.(*ast.Ident)
	rid, rok := b.R.(*ast.Ident)
	if !lok || !rok {
		return 0, 0, 0, false
	}
	li, ri = l.ColIndex(lid.Table, lid.Name), r.ColIndex(rid.Table, rid.Name)
	if li < 0 || ri < 0 {
		li, ri = l.ColIndex(rid.Table, rid.Name), r.ColIndex(lid.Table, lid.Name)
	}
	if li < 0 || ri < 0 {
		return 0, 0, 0, false
	}
	kind, ok = bat.JoinKeyKind(l.Vecs[li], r.Vecs[ri])
	return li, ri, kind, ok
}

// countingSortPairs stably reorders (major, minor) index pairs into
// ascending major order; n is the exclusive upper bound of major
// values. The input arrives sorted by minor, so equal-major runs come
// out in ascending minor order.
func countingSortPairs(major, minor []int, n int) (outMajor, outMinor []int) {
	count := make([]int, n+1)
	for _, m := range major {
		count[m+1]++
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	outMajor = make([]int, len(major))
	outMinor = make([]int, len(minor))
	for k := range major {
		pos := count[major[k]]
		count[major[k]]++
		outMajor[pos] = major[k]
		outMinor[pos] = minor[k]
	}
	return outMajor, outMinor
}
