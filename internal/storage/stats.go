package storage

import (
	"math"
	"slices"

	"repro/internal/array"
	"repro/internal/value"
)

// Zone maps live where the data they describe lives. A segment carries
// the statistics of its own values (segZone), and a segment row — the
// same stretch of positions across every attribute — carries the
// liveness of its cells (liveZone). Both are built on first use and
// are pure functions of immutable data: every store version that
// shares a segment shares its entry, a write drops exactly the entries
// of what it touches, and ChunkStats is a merge of the entries of a
// chunk's segment rows in scan order.

var nan = math.NaN()

// segZone is the statistics of one segment: how many values are
// present, and their minimum and maximum as a fold in position order
// with the comparison value.Compare makes. NaN neither replaces a
// bound nor lets itself be replaced, so a fold whose first value is
// NaN ends with NaN bounds; to merge folds exactly, min and max cover
// the non-NaN values only and nanFirst records that case.
type segZone struct {
	nonNull  int64
	nanFirst bool
	min, max value.Value // typed NULLs when there is no (non-NaN) value
}

// liveZone is the liveness of one segment row: the number of live
// cells and their inclusive coordinate bounding box.
type liveZone struct {
	rows   int64
	lo, hi []int64
}

// stats returns the segment's statistics, building them on first use.
// Racing builders compute the same entry.
func (sg *segment) stats() *segZone {
	if z := sg.zone.Load(); z != nil {
		return z
	}
	z := sg.buildZone()
	sg.zone.Store(z)
	return z
}

func (sg *segment) buildZone() *segZone {
	z := &segZone{min: value.NewNull(sg.typ), max: value.NewNull(sg.typ)}
	n := sg.len()
	if n == 0 {
		return z
	}
	full := sg.allValid(0, n)
	switch sg.typ {
	case value.Float:
		lo, hi, any := foldBounds(sg, sg.f, full, z)
		if any {
			z.min, z.max = value.NewFloat(lo), value.NewFloat(hi)
		}
	case value.Int, value.Timestamp:
		lo, hi, any := foldBounds(sg, sg.i, full, z)
		if any {
			z.min, z.max = value.Value{Typ: sg.typ, I: lo}, value.Value{Typ: sg.typ, I: hi}
		}
	default:
		for j := 0; j < n; j++ {
			x := sg.get(j)
			if x.Null {
				continue
			}
			if z.min.Null || value.Compare(x, z.min) < 0 {
				z.min = x
			}
			if z.max.Null || value.Compare(x, z.max) > 0 {
				z.max = x
			}
			z.nonNull++
		}
	}
	return z
}

// foldBounds folds the present values of a numeric segment in position
// order: their count and whether the first is NaN go to z, the bounds
// of those that equal themselves (all but NaN) come back. NaN loses
// every comparison, so past the first such value the loop needs no
// test for it.
func foldBounds[T int64 | float64](sg *segment, data []T, full bool, z *segZone) (lo, hi T, any bool) {
	present := func(j int) bool { return full || sg.isValid(j) }
	j, count := 0, int64(0)
	for ; j < len(data) && !(present(j) && data[j] == data[j]); j++ {
		if present(j) { // a NaN before any other value
			z.nanFirst = true
			count++
		}
	}
	if any = j < len(data); any {
		lo, hi = data[j], data[j]
		for ; j < len(data); j++ {
			if x := data[j]; !present(j) {
				continue
			} else if count++; x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
	}
	z.nonNull = count
	return lo, hi, any
}

// buildLive computes the liveness of segment row k of g, whose cells
// are positions [0, n) of the row. The bounds of a live run are
// arithmetic on its two ends; no coordinate is materialized.
func buildLive(g *grid, k, n, nd int) *liveZone {
	lz := &liveZone{lo: make([]int64, nd), hi: make([]int64, nd)}
	stored := g.stored > 0
	b := batcher{max: n, sink: func(p piece) {
		for d := 0; d < nd; d++ {
			var lo, hi int64
			switch {
			case !stored:
				lo, hi = p.coordBounds(d)
			case p.pos == nil:
				coord := g.cols[d][k].i[p.lo:p.hi]
				lo, hi = slices.Min(coord), slices.Max(coord)
			default:
				coord := g.cols[d][k].i
				lo, hi = coord[p.pos[0]], coord[p.pos[0]]
				for _, q := range p.pos[1:] {
					lo, hi = min(lo, coord[q]), max(hi, coord[q])
				}
			}
			if lz.rows == 0 {
				lz.lo[d], lz.hi[d] = lo, hi
			}
			lz.lo[d], lz.hi[d] = min(lz.lo[d], lo), max(lz.hi[d], hi)
		}
		lz.rows += int64(p.rows())
	}}
	base := k << g.shift
	b.addRange(g, base, base+n, cellFilter{})
	return lz
}

// newChunkStats allocates n empty chunk zone maps over shared backing
// arrays.
func newChunkStats(n, nd int, attrs []array.Attr) []array.ChunkStats {
	out := make([]array.ChunkStats, n)
	bounds := make([]int64, 2*n*nd)
	stats := make([]array.AttrStats, n*len(attrs))
	for ci := range out {
		cs := &out[ci]
		cs.DimLo, bounds = bounds[:nd:nd], bounds[nd:]
		cs.DimHi, bounds = bounds[:nd:nd], bounds[nd:]
		cs.Attrs, stats = stats[:len(attrs):len(attrs)], stats[len(attrs):]
		for ai, at := range attrs {
			cs.Attrs[ai].Min = value.NewNull(at.Typ)
			cs.Attrs[ai].Max = value.NewNull(at.Typ)
		}
	}
	return out
}

// addLive merges one segment row's liveness into the chunk.
func addLive(cs *array.ChunkStats, lz *liveZone) {
	if lz.rows == 0 {
		return
	}
	for d := range cs.DimLo {
		if cs.Rows == 0 {
			cs.DimLo[d], cs.DimHi[d] = lz.lo[d], lz.hi[d]
		}
		cs.DimLo[d], cs.DimHi[d] = min(cs.DimLo[d], lz.lo[d]), max(cs.DimHi[d], lz.hi[d])
	}
	cs.Rows += lz.rows
}

// addZone merges the next segment's statistics, in scan order, into an
// attribute's running fold. Until finishStats, Nulls counts the values
// present so far.
func addZone(as *array.AttrStats, z *segZone) {
	if z.nonNull == 0 {
		return
	}
	first := as.Nulls == 0
	as.Nulls += z.nonNull
	switch {
	case first && z.nanFirst:
		as.Min, as.Max = value.NewFloat(nan), value.NewFloat(nan)
	case z.min.Null, !as.Min.Null && as.Min.Typ == value.Float && as.Min.F != as.Min.F:
		// Nothing but NaN to add, or a fold already pinned at NaN.
	case as.Min.Null:
		as.Min, as.Max = z.min, z.max
	default:
		if value.Compare(z.min, as.Min) < 0 {
			as.Min = z.min
		}
		if value.Compare(z.max, as.Max) > 0 {
			as.Max = z.max
		}
	}
}

// finishStats turns the present-value counts into NULL counts: a value
// is present only in a live cell.
func finishStats(cs *array.ChunkStats) {
	for ai := range cs.Attrs {
		cs.Attrs[ai].Nulls = cs.Rows - cs.Attrs[ai].Nulls
	}
}
