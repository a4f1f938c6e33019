package storage

import (
	"encoding/binary"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// tabularStore is the Tabular scheme of Figure 1: the array index
// values are materialized as explicit columns alongside the attribute
// columns — exactly the relational encoding of an array. It is the
// representation of choice for sparse arrays and for arrays with
// unbounded dimensions, where dense allocation is impossible (§2.2).
type tabularStore struct {
	dims  []array.Dimension
	attrs []array.Attr
	// idx holds one materialized index column per dimension.
	idx []*column
	// cols holds the attribute columns. A row none of whose attributes
	// is present is dead: deleted, awaiting compaction.
	cols []*column
	// rows counts the rows ever appended, dead ones included.
	rows int
	// lookup maps packed coordinates to the position of a live row. A
	// clone shares the map; the side that first adds or removes a row
	// copies it whole (lookupOwn says whose it is).
	lookup    map[string]int
	lookupOwn *owner
	live      int
	// Incrementally tracked bounding box. Deletes do not shrink it, so
	// the box is conservative (a superset) after heavy deletion — the
	// engine only needs an enclosing rectangle.
	haveCells bool
	blo, bhi  []int64
	// dimVals caches sorted distinct coordinate values per dimension
	// for sparse-range expansion; invalidated on inserts. Stale values
	// after deletes are harmless (reads come back NULL and are
	// skipped). dimMu guards the lazy build: concurrent read-only
	// queries (the morsel-driven executor) may race to build it.
	dimMu   sync.Mutex
	dimVals [][]int64
	// zones holds the lazily built liveness entry of every segment row.
	zones []atomic.Pointer[liveZone]
	cow
}

// NewTabular creates a tabular store. Cells materialize on first
// write; defaults fill unset attributes of a written cell. For
// bounded arrays whose defaults are non-NULL the engine materializes
// default cells eagerly so scans observe them, mirroring the paper's
// "all cells covered by the dimensions exist".
func NewTabular(schema array.Schema) (array.Store, error) {
	s := &tabularStore{
		dims:   schema.Dims,
		attrs:  schema.Attrs,
		lookup: make(map[string]int),
		blo:    make([]int64, len(schema.Dims)),
		bhi:    make([]int64, len(schema.Dims)),
	}
	s.disown()
	s.lookupOwn = s.own.Load()
	s.idx = make([]*column, len(s.dims))
	for i, d := range s.dims {
		s.idx[i] = newColumn(d.Typ, 0, nil)
	}
	s.cols = make([]*column, len(s.attrs))
	for i, a := range s.attrs {
		s.cols[i] = newColumn(a.Typ, 0, nil)
	}
	if allBounded(s.dims) && anyNonNullDefault(s.attrs) {
		coords := make([]int64, len(s.dims))
		var fill func(d int)
		fill = func(d int) {
			if d == len(s.dims) {
				if dimChecksPass(s.dims, coords) {
					s.materialize(coords, -1, value.Value{})
				}
				return
			}
			dim := s.dims[d]
			for ord := int64(0); ord < dim.Size(); ord++ {
				coords[d] = dim.Index(ord)
				fill(d + 1)
			}
		}
		fill(0)
	}
	return s, nil
}

func allBounded(dims []array.Dimension) bool {
	for _, d := range dims {
		if !d.Bounded() {
			return false
		}
	}
	return true
}

func anyNonNullDefault(attrs []array.Attr) bool {
	for _, a := range attrs {
		if a.DefaultFn != nil || !a.Default.Null {
			return true
		}
	}
	return false
}

// packCoords builds a map key from coordinates.
func packCoords(coords []int64) string {
	buf := make([]byte, 8*len(coords))
	for i, c := range coords {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(c))
	}
	return string(buf)
}

// ownLookup makes the coordinate lookup the store's own before a row
// is added or removed.
func (s *tabularStore) ownLookup() {
	if own := s.own.Load(); s.lookupOwn != own {
		s.lookup, s.lookupOwn = maps.Clone(s.lookup), own
		s.privatized(int64(len(s.lookup)) * int64(8*len(s.dims)+8))
	}
}

// materialize appends the row of the cell at coords — attribute attr
// set to v, every other one to its default — unless that leaves it a
// hole.
func (s *tabularStore) materialize(coords []int64, attr int, v value.Value) {
	vals := make([]value.Value, len(s.attrs))
	live := false
	for ai, at := range s.attrs {
		if vals[ai] = v; ai != attr {
			vals[ai] = defaultValue(at, coords)
		}
		live = live || !vals[ai].Null
	}
	if !live {
		return
	}
	row := s.rows
	s.rows++
	for i, c := range s.idx {
		c.grow(&s.cow)
		c.set(row, value.Value{Typ: s.dims[i].Typ, I: coords[i]}, &s.cow)
	}
	for ai, c := range s.cols {
		c.grow(&s.cow)
		if !vals[ai].Null {
			c.set(row, vals[ai], &s.cow)
		}
	}
	if row>>segShift == len(s.zones) {
		zones := make([]atomic.Pointer[liveZone], len(s.zones)+1)
		for k := range s.zones {
			zones[k].Store(s.zones[k].Load())
		}
		s.zones = zones
	}
	s.zones[row>>segShift].Store(nil)
	s.ownLookup()
	s.lookup[packCoords(coords)] = row
	s.live++
	s.dimVals = nil
	if !s.haveCells {
		copy(s.blo, coords)
		copy(s.bhi, coords)
		s.haveCells = true
		return
	}
	for i, c := range coords {
		s.blo[i], s.bhi[i] = min(s.blo[i], c), max(s.bhi[i], c)
	}
}

func (s *tabularStore) Scheme() string { return "tabular" }
func (s *tabularStore) Len() int       { return s.live }

func (s *tabularStore) Get(coords []int64, attr int) value.Value {
	row, ok := s.lookup[packCoords(coords)]
	if !ok {
		return value.NewNull(s.attrs[attr].Typ)
	}
	return s.cols[attr].get(row)
}

func (s *tabularStore) Set(coords []int64, attr int, v value.Value) error {
	key := packCoords(coords)
	row, ok := s.lookup[key]
	if !ok {
		if !v.Null { // punching a hole in an absent cell is a no-op
			s.materialize(coords, attr, v)
		}
		return nil
	}
	s.cols[attr].set(row, v, &s.cow)
	if v.Null && s.rowIsHole(row) {
		s.ownLookup()
		delete(s.lookup, key)
		s.live--
		s.zones[row>>segShift].Store(nil)
	}
	return nil
}

func (s *tabularStore) rowIsHole(row int) bool {
	for _, c := range s.cols {
		if c.isValid(row) {
			return false
		}
	}
	return true
}

// coord returns row's coordinate along dimension d.
func (s *tabularStore) coord(d, row int) int64 {
	return s.idx[d].segs[row>>segShift].i[row&(segCells-1)]
}

// scanRows visits the live rows of [lo, hi), materializing the
// attribute columns listed in cols.
func (s *tabularStore) scanRows(lo, hi int, cols []int, visit func(coords []int64, vals []value.Value) bool) {
	coords := make([]int64, len(s.dims))
	vals := make([]value.Value, len(cols))
	for row := lo; row < hi; row++ {
		if s.rowIsHole(row) {
			continue
		}
		for d := range s.idx {
			coords[d] = s.coord(d, row)
		}
		for vi, ai := range cols {
			vals[vi] = s.cols[ai].get(row)
		}
		if !visit(coords, vals) {
			return
		}
	}
}

func (s *tabularStore) Scan(visit func(coords []int64, vals []value.Value) bool) {
	s.scanRows(0, s.rows, array.AllAttrs(nil, len(s.attrs)), visit)
}

// ScanChunks splits the row range into contiguous chunks; concatenated
// in order they reproduce Scan exactly. Only the attribute columns in
// attrs are materialized into vals.
func (s *tabularStore) ScanChunks(target int, attrs []int) []array.ChunkScan {
	cols := array.AllAttrs(attrs, len(s.attrs))
	ranges := chunkRanges(int64(s.rows), target, segCells)
	out := make([]array.ChunkScan, len(ranges))
	for ci, r := range ranges {
		lo, hi := int(r[0]), int(r[1])
		out[ci] = func(visit func(coords []int64, vals []value.Value) bool) {
			s.scanRows(lo, hi, cols, visit)
		}
	}
	return out
}

// ChunkStats returns zone maps index-aligned with ScanChunks(target, ·):
// each a merge of the entries of the chunk's segment rows.
func (s *tabularStore) ChunkStats(target int) []array.ChunkStats {
	ranges := chunkRanges(int64(s.rows), target, segCells)
	out := newChunkStats(len(ranges), len(s.dims), s.attrs)
	var g *grid // built when an entry is missing
	for ci, r := range ranges {
		cs := &out[ci]
		for k := int(r[0] >> segShift); k<<segShift < int(r[1]); k++ {
			lz := s.zones[k].Load()
			if lz == nil {
				if g == nil {
					g = s.grid()
				}
				lz = buildLive(g, k, min(segCells, s.rows-k<<segShift), len(s.dims))
				s.zones[k].Store(lz)
			}
			addLive(cs, lz)
			for ai, c := range s.cols {
				addZone(&cs.Attrs[ai], c.segs[k].stats())
			}
		}
		finishStats(cs)
	}
	return out
}

// DimValues returns the sorted distinct coordinate values along
// dimension di — the sparse-range expansion index. The result must be
// treated as read-only.
func (s *tabularStore) DimValues(di int) []int64 {
	s.dimMu.Lock()
	defer s.dimMu.Unlock()
	if s.dimVals == nil {
		s.dimVals = make([][]int64, len(s.dims))
	}
	if s.dimVals[di] != nil {
		return s.dimVals[di]
	}
	set := make(map[int64]struct{}, s.live)
	for row := 0; row < s.rows; row++ {
		if !s.rowIsHole(row) {
			set[s.coord(di, row)] = struct{}{}
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	s.dimVals[di] = out
	return out
}

func (s *tabularStore) Bounds() (lo, hi []int64, ok bool) {
	if !s.haveCells || s.live == 0 {
		return nil, nil, false
	}
	return append([]int64(nil), s.blo...), append([]int64(nil), s.bhi...), true
}

// Clone shares every segment and the coordinate lookup with the copy;
// see linearStore.Clone.
func (s *tabularStore) Clone() array.Store {
	out := &tabularStore{
		dims:      s.dims,
		attrs:     s.attrs,
		rows:      s.rows,
		lookup:    s.lookup,
		lookupOwn: s.lookupOwn,
		live:      s.live,
		haveCells: s.haveCells,
		blo:       append([]int64(nil), s.blo...),
		bhi:       append([]int64(nil), s.bhi...),
		idx:       make([]*column, len(s.idx)),
		cols:      make([]*column, len(s.cols)),
		zones:     make([]atomic.Pointer[liveZone], len(s.zones)),
	}
	for i, c := range s.idx {
		out.idx[i] = c.clone()
	}
	for i, c := range s.cols {
		out.cols[i] = c.clone()
	}
	for k := range s.zones {
		out.zones[k].Store(s.zones[k].Load())
	}
	out.disown()
	s.disown()
	return out
}
