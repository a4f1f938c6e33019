package storage

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/value"
)

// zoneMaps maintains lazily-computed per-chunk zone maps for a store.
// Every mutating operation bumps seq; ChunkStats recomputes when the
// cached generation is stale, so readers always observe exact
// statistics. The engine's MVCC layer clones stores before mutating
// them (copy-on-write), and clones start with a fresh zoneMaps, so a
// snapshot's stats can never describe cells it does not contain.
//
// mu guards the lazy build the same way tabularStore.dimMu guards the
// dim-values cache: concurrent read-only queries (the morsel-driven
// executor) may race to compute stats for the same generation.
type zoneMaps struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	cache map[int]zoneEntry // keyed by ScanChunks target
}

type zoneEntry struct {
	seq   uint64
	stats []array.ChunkStats
}

// bump invalidates cached stats; called by every mutating store op.
func (z *zoneMaps) bump() { z.seq.Add(1) }

// get returns the zone maps for the given chunking target, recomputing
// via compute when the cache is missing or stale.
func (z *zoneMaps) get(target int, compute func() []array.ChunkStats) []array.ChunkStats {
	cur := z.seq.Load()
	z.mu.Lock()
	defer z.mu.Unlock()
	if e, ok := z.cache[target]; ok && e.seq == cur {
		return e.stats
	}
	stats := compute()
	if z.cache == nil {
		z.cache = make(map[int]zoneEntry)
	}
	z.cache[target] = zoneEntry{seq: cur, stats: stats}
	return stats
}

// zonePieceCells caps the cells one piece of the zone-map build spans.
const zonePieceCells = 1 << 16

// chunkWalker is the piece-level face every storage scheme shares.
type chunkWalker interface {
	chunkWalks(target int, restrict []array.DimRange) []chunkWalk
}

// computeZoneMaps derives exact per-chunk statistics from the store's
// own chunk walks, so stats[i] is index-aligned with chunk i of any
// ScanChunks or ColumnChunks call with the same target on the unmutated
// store. Rows counts live cells, DimLo/DimHi bound their coordinates
// inclusively, and each attribute's Min/Max cover non-NULL values only
// (typed NULLs when the chunk has none — see array.AttrStats). The
// build reads pieces, not batches: attribute bounds fold in typed loops
// over views of the stored columns, and the coordinate bounds of a run
// are arithmetic on its ends — no coordinate is ever materialized.
func computeZoneMaps(st chunkWalker, target int, dims []array.Dimension, attrs []array.Attr) []array.ChunkStats {
	walks := st.chunkWalks(target, nil)
	out := make([]array.ChunkStats, len(walks))
	nd := len(dims)
	for ci, walk := range walks {
		cs := &out[ci]
		cs.DimLo = make([]int64, nd)
		cs.DimHi = make([]int64, nd)
		cs.Attrs = make([]array.AttrStats, len(attrs))
		for ai, at := range attrs {
			cs.Attrs[ai].Min = value.NewNull(at.Typ)
			cs.Attrs[ai].Max = value.NewNull(at.Typ)
		}
		walk(&batcher{max: zonePieceCells, sink: func(p piece) {
			// A grid without arithmetic dimensions (tabular) keeps its
			// coordinates in its leading columns, always as runs.
			stored := len(p.g.dims) == 0
			for d := 0; d < nd; d++ {
				var lo, hi int64
				if stored {
					coord := p.g.cols[d].i[p.lo:p.hi]
					lo, hi = slices.Min(coord), slices.Max(coord)
				} else {
					lo, hi = p.coordBounds(d)
				}
				if cs.Rows == 0 {
					cs.DimLo[d], cs.DimHi[d] = lo, hi
				}
				cs.DimLo[d], cs.DimHi[d] = min(cs.DimLo[d], lo), max(cs.DimHi[d], hi)
			}
			cs.Rows += int64(p.rows())
			for ai := range attrs {
				ci := ai
				if stored {
					ci += nd
				}
				foldAttrStats(&cs.Attrs[ai], p.column(ci))
			}
		}})
	}
	return out
}

// foldAttrStats continues an attribute's running NULL count and
// min/max over one more batch, element by element in scan order — the
// order matters for NaN, which value.Compare neither replaces nor lets
// be replaced — with the comparison value.Compare would make.
func foldAttrStats(as *array.AttrStats, v bat.Vector) {
	nulls := bat.NullCount(v)
	as.Nulls += int64(nulls)
	switch t := v.(type) {
	case *bat.FloatVector:
		for i, x := range t.Floats() {
			switch {
			case nulls > 0 && t.IsNull(i):
			case as.Min.Null:
				as.Min, as.Max = value.NewFloat(x), value.NewFloat(x)
			case x < as.Min.F:
				as.Min.F = x
			case x > as.Max.F:
				as.Max.F = x
			}
		}
	case *bat.IntVector:
		for i, x := range t.Ints() {
			switch {
			case nulls > 0 && t.IsNull(i):
			case as.Min.Null:
				as.Min, as.Max = value.Value{Typ: t.Type(), I: x}, value.Value{Typ: t.Type(), I: x}
			case x < as.Min.I:
				as.Min.I = x
			case x > as.Max.I:
				as.Max.I = x
			}
		}
	default:
		for i, n := 0, v.Len(); i < n; i++ {
			x := v.Get(i)
			if x.Null {
				continue
			}
			if as.Min.Null || value.Compare(x, as.Min) < 0 {
				as.Min = x
			}
			if as.Max.Null || value.Compare(x, as.Max) > 0 {
				as.Max = x
			}
		}
	}
}
