package storage

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/value"
)

// This file is the bulk-write face of the storage schemes
// (array.BulkWriter): what a DML statement ranges over comes out as
// column batches, and the typed vectors it computes go back in at
// coordinate columns. The dense schemes do both on positions; the
// other two, which a bounded array only gets when forced or hinted
// sparse, address cell by cell.

func (s *linearStore) CoveredChunks(target int, restrict []array.DimRange) []array.ColumnChunk {
	return columnChunks(s.chunkWalks(target, restrict, true), array.AllAttrs(nil, len(s.attrs)), restrict)
}

// Scatter computes every row's position from the typed coordinate
// columns, then writes the values segment by segment.
func (s *linearStore) Scatter(coords []bat.Vector, attr int, vals bat.Vector) error {
	n := vals.Len()
	pos := make([]int, n)
	for d, dim := range s.dims {
		step := max(dim.Step, 1)
		for i, c := range coords[d].(*bat.IntVector).Ints() {
			ord := (c - dim.Start) / step
			if c < dim.Start || ord >= s.sizes[d] {
				return fmt.Errorf("%s store: coordinate %d of dimension %s out of bounds", s.scheme, c, dim.Name)
			}
			pos[i] += int(ord * s.strides[d])
		}
	}
	col := s.cols[attr]
	nulls := bat.NullCount(vals) > 0
	for lo := 0; lo < n; {
		// Rows arrive in scan order, so a stretch of them shares a
		// segment: privatize once, then write the stretch.
		k := pos[lo] >> segShift
		sg := col.writable(k, &s.cow)
		sg.touch()
		hi := lo + 1
		for hi < n && pos[hi]>>segShift == k {
			hi++
		}
		for i := lo; i < hi; i++ {
			j := pos[i] & (segCells - 1)
			null := nulls && vals.IsNull(i)
			if sg.isValid(j) == null {
				sg.setValid(j, !null)
				s.validityFlipped(pos[i], attr, !null)
			}
		}
		storeValues(sg, pos[lo:hi], vals, lo)
		lo = hi
	}
	return nil
}

// storeValues copies elements [off, off+len(pos)) of vals into sg at
// positions pos (taken modulo the segment size), values of NULL
// elements included — the validity bits, already set, say which count.
func storeValues(sg *segment, pos []int, vals bat.Vector, off int) {
	switch v := vals.(type) {
	case *bat.FloatVector:
		if sg.typ == value.Float {
			for i, p := range pos {
				sg.f[p&(segCells-1)] = v.Floats()[off+i]
			}
			return
		}
	case *bat.IntVector:
		if sg.typ == v.Type() {
			for i, p := range pos {
				sg.i[p&(segCells-1)] = v.Ints()[off+i]
			}
			return
		}
	}
	for i, p := range pos {
		if x := vals.Get(off + i); !x.Null {
			sg.set(p&(segCells-1), x)
		}
	}
}

func (s *slabStore) CoveredChunks(target int, restrict []array.DimRange) []array.ColumnChunk {
	if !allBounded(s.dims) {
		return s.ColumnChunks(target, nil, restrict)
	}
	return coveredByGet(s, s.dims, s.attrs, restrict)
}

func (s *slabStore) Scatter(coords []bat.Vector, attr int, vals bat.Vector) error {
	return scatterBySet(s, coords, attr, vals)
}

func (s *tabularStore) CoveredChunks(target int, restrict []array.DimRange) []array.ColumnChunk {
	if !allBounded(s.dims) {
		return s.ColumnChunks(target, nil, restrict)
	}
	return coveredByGet(s, s.dims, s.attrs, restrict)
}

func (s *tabularStore) Scatter(coords []bat.Vector, attr int, vals bat.Vector) error {
	return scatterBySet(s, coords, attr, vals)
}

// scatterBySet is Scatter as one Set per row.
func scatterBySet(st array.Store, coords []bat.Vector, attr int, vals bat.Vector) error {
	cell := make([]int64, len(coords))
	for i, n := 0, vals.Len(); i < n; i++ {
		for d, c := range coords {
			cell[d] = c.(*bat.IntVector).Ints()[i]
		}
		if err := st.Set(cell, attr, vals.Get(i)); err != nil {
			return err
		}
	}
	return nil
}

// coveredByGet serves CoveredChunks of a bounded array for the schemes
// that keep no dense positions: one chunk that enumerates the admitted
// box in row-major order and reads every cell with Get. It is the
// cell-at-a-time face on purpose: a covered walk is mostly holes where
// these schemes are the right choice (a bounded array is slab only
// above 2^28 cells, tabular only when hinted under 5 % dense, or
// either when a test or ablation forces it), so the box enumeration,
// not the boxed Get, is what it costs, and serving it from block grids
// with absent blocks as NULL runs would be a second batcher for no
// workload the policy produces. Neither chunking nor zone maps are
// lost to DML by it: a covered scan skips no chunk (holes are rows).
func coveredByGet(st array.Store, dims []array.Dimension, attrs []array.Attr, restrict []array.DimRange) []array.ColumnChunk {
	nd := len(dims)
	return []array.ColumnChunk{func(limit int, visit func(array.ColumnBatch) bool) {
		lo, cell := make([]int64, nd), make([]int64, nd)
		for d, dim := range dims {
			lo[d] = dim.Start
			if restrict != nil && !restrict[d].Full && restrict[d].Lo > dim.Start {
				// First on-grid value at or above the restriction's start.
				step := max(dim.Step, 1)
				lo[d] = dim.Start + (restrict[d].Lo-dim.Start+step-1)/step*step
			}
			if cell[d] = lo[d]; !dim.Contains(lo[d]) {
				return
			}
		}
		var batch array.ColumnBatch
		emit := func() bool {
			full := batch
			batch = nil
			return full == nil || visit(full)
		}
		for {
			admitted := dimChecksPass(dims, cell)
			for d := 0; admitted && restrict != nil && d < nd; d++ {
				admitted = restrict[d].Contains(cell[d])
			}
			if admitted {
				if batch == nil {
					batch = make(array.ColumnBatch, nd+len(attrs))
					for d, dim := range dims {
						batch[d] = bat.New(dim.Typ, 0)
					}
					for ai, at := range attrs {
						batch[nd+ai] = bat.New(at.Typ, 0)
					}
				}
				for d, dim := range dims {
					batch[d].Append(value.Value{Typ: dim.Typ, I: cell[d]})
				}
				for ai := range attrs {
					batch[nd+ai].Append(st.Get(cell, ai))
				}
				if batch.Rows() == limit && !emit() {
					return
				}
			}
			// Advance row-major: the last dimension varies fastest.
			d := nd - 1
			for ; d >= 0; d-- {
				cell[d] += max(dims[d].Step, 1)
				if dims[d].Contains(cell[d]) && (restrict == nil || restrict[d].Full || cell[d] < restrict[d].Hi) {
					break
				}
				cell[d] = lo[d]
			}
			if d < 0 {
				emit()
				return
			}
		}
	}}
}
