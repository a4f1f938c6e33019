package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// linearStore is the shared implementation of the two dense schemes of
// Figure 1: Virtual (row-major, cell location derived as |y|*x+y) and
// D-Order (column-major, the "programming language compilation
// technique" ordering). The index columns are never materialized —
// the coordinate of a cell is derived from its position, exactly the
// virtual-OID trick of MonetDB BATs (§2.2).
type linearStore struct {
	scheme   string
	dims     []array.Dimension
	attrs    []array.Attr
	sizes    []int64
	strides  []int64
	total    int64
	cols     []*column
	liveCnt  int
	rowMajor bool
	// live holds the lazily built liveness entry of every segment row;
	// a write that flips a cell's liveness drops its row's entry.
	live []atomic.Pointer[liveZone]
	// defaults is set when some attribute has a non-NULL default.
	defaults bool
	cow
}

// NewVirtual creates a row-major dense store. All dimensions must be
// bounded; the adaptive layer guarantees this.
func NewVirtual(schema array.Schema) (array.Store, error) {
	return newLinear("virtual", schema, true)
}

// NewDOrder creates a column-major dense store (first dimension varies
// fastest), matching Fortran/FITS serialization order.
func NewDOrder(schema array.Schema) (array.Store, error) {
	return newLinear("dorder", schema, false)
}

func newLinear(scheme string, schema array.Schema, rowMajor bool) (array.Store, error) {
	s := &linearStore{
		scheme:   scheme,
		dims:     schema.Dims,
		attrs:    schema.Attrs,
		rowMajor: rowMajor,
		defaults: anyNonNullDefault(schema.Attrs),
	}
	s.disown()
	s.sizes = make([]int64, len(s.dims))
	total := int64(1)
	for i, d := range s.dims {
		if !d.Bounded() {
			return nil, fmt.Errorf("%s storage requires bounded dimensions; %s is unbounded", scheme, d.Name)
		}
		s.sizes[i] = d.Size()
		total *= s.sizes[i]
	}
	s.total = total
	s.strides = make([]int64, len(s.dims))
	if rowMajor {
		stride := int64(1)
		for i := len(s.dims) - 1; i >= 0; i-- {
			s.strides[i] = stride
			stride *= s.sizes[i]
		}
	} else {
		stride := int64(1)
		for i := 0; i < len(s.dims); i++ {
			s.strides[i] = stride
			stride *= s.sizes[i]
		}
	}
	s.cols = make([]*column, len(s.attrs))
	for ai, at := range s.attrs {
		s.cols[ai] = newColumn(at.Typ, int(total), s.own.Load())
	}
	s.live = make([]atomic.Pointer[liveZone], (total+segCells-1)/segCells)
	// Initialize every valid cell to the attribute defaults; cells
	// carved out by dimension CHECKs stay holes (Fig. 2 forms).
	coords := make([]int64, len(s.dims))
	s.eachPosition(func(pos int64) {
		s.coordsOf(pos, coords)
		if !dimChecksPass(s.dims, coords) {
			return
		}
		live := false
		for ai, at := range s.attrs {
			dv := defaultValue(at, coords)
			s.cols[ai].set(int(pos), dv, &s.cow)
			if !dv.Null {
				live = true
			}
		}
		if live {
			s.liveCnt++
		}
	})
	return s, nil
}

func (s *linearStore) eachPosition(fn func(pos int64)) {
	for p := int64(0); p < s.total; p++ {
		fn(p)
	}
}

// offset linearizes coordinates; -1 when out of range.
func (s *linearStore) offset(coords []int64) int64 {
	var off int64
	for i, d := range s.dims {
		ord := d.Ordinal(coords[i])
		if ord < 0 || ord >= s.sizes[i] {
			return -1
		}
		off += ord * s.strides[i]
	}
	return off
}

// coordsOf decodes a linear position into index values (into out).
func (s *linearStore) coordsOf(pos int64, out []int64) {
	if s.rowMajor {
		for i := 0; i < len(s.dims); i++ {
			ord := pos / s.strides[i]
			pos -= ord * s.strides[i]
			out[i] = s.dims[i].Index(ord)
		}
	} else {
		for i := len(s.dims) - 1; i >= 0; i-- {
			ord := pos / s.strides[i]
			pos -= ord * s.strides[i]
			out[i] = s.dims[i].Index(ord)
		}
	}
}

func (s *linearStore) Scheme() string { return s.scheme }
func (s *linearStore) Len() int       { return s.liveCnt }

func (s *linearStore) Get(coords []int64, attr int) value.Value {
	off := s.offset(coords)
	if off < 0 {
		return value.NewNull(s.attrs[attr].Typ)
	}
	return s.cols[attr].get(int(off))
}

func (s *linearStore) Set(coords []int64, attr int, v value.Value) error {
	off := s.offset(coords)
	if off < 0 {
		return fmt.Errorf("%s store: coordinates %v out of bounds", s.scheme, coords)
	}
	pos := int(off)
	sg, j := s.cols[attr].writable(pos>>segShift, &s.cow), pos&(segCells-1)
	was := sg.isValid(j)
	sg.set(j, v)
	if was == v.Null {
		s.validityFlipped(pos, attr, !v.Null)
	}
	return nil
}

// validityFlipped accounts for attribute attr of the cell at pos having
// gained or lost its value: when no other attribute holds one, the cell
// itself came alive or became a hole. A hole is indistinguishable from
// space outside the array, so a cell that comes alive materializes like
// one written there in any scheme: its other attributes take their
// defaults.
func (s *linearStore) validityFlipped(pos, attr int, nowValid bool) {
	for ai, c := range s.cols {
		if ai != attr && c.isValid(pos) {
			return
		}
	}
	if lz := &s.live[pos>>segShift]; lz.Load() != nil {
		lz.Store(nil)
	}
	if !nowValid {
		s.liveCnt--
		return
	}
	s.liveCnt++
	if !s.defaults {
		return
	}
	coords := make([]int64, len(s.dims))
	s.coordsOf(int64(pos), coords)
	for ai, at := range s.attrs {
		if dv := defaultValue(at, coords); ai != attr && !dv.Null {
			s.cols[ai].set(pos, dv, &s.cow)
		}
	}
}

func (s *linearStore) isHole(pos int) bool {
	for _, c := range s.cols {
		if c.isValid(pos) {
			return false
		}
	}
	return true
}

func (s *linearStore) Scan(visit func(coords []int64, vals []value.Value) bool) {
	coords := make([]int64, len(s.dims))
	vals := make([]value.Value, len(s.attrs))
	for p := int64(0); p < s.total; p++ {
		if s.isHole(int(p)) {
			continue
		}
		s.coordsOf(p, coords)
		for ai := range s.cols {
			vals[ai] = s.cols[ai].get(int(p))
		}
		if !visit(coords, vals) {
			return
		}
	}
}

// chunkRanges splits [0, total) into roughly target contiguous ranges
// whose boundaries are multiples of align: the positional schemes
// align chunks on segments, so a chunk is whole segment rows and its
// zone map a merge of their entries.
func chunkRanges(total int64, target int, align int64) [][2]int64 {
	if total <= 0 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	size := (total + int64(target) - 1) / int64(target)
	size = (size + align - 1) / align * align
	out := make([][2]int64, 0, (total+size-1)/size)
	for lo := int64(0); lo < total; lo += size {
		out = append(out, [2]int64{lo, min(lo+size, total)})
	}
	return out
}

// ScanChunks splits the linear position range into contiguous chunks;
// concatenated in order they reproduce Scan exactly. Only the columns
// in attrs are materialized into vals (hole detection still consults
// every column, like Scan).
func (s *linearStore) ScanChunks(target int, attrs []int) []array.ChunkScan {
	cols := array.AllAttrs(attrs, len(s.attrs))
	ranges := chunkRanges(s.total, target, segCells)
	out := make([]array.ChunkScan, len(ranges))
	for ci, r := range ranges {
		lo, hi := r[0], r[1]
		out[ci] = func(visit func(coords []int64, vals []value.Value) bool) {
			coords := make([]int64, len(s.dims))
			vals := make([]value.Value, len(cols))
			for p := lo; p < hi; p++ {
				if s.isHole(int(p)) {
					continue
				}
				s.coordsOf(p, coords)
				for vi, ai := range cols {
					vals[vi] = s.cols[ai].get(int(p))
				}
				if !visit(coords, vals) {
					return
				}
			}
		}
	}
	return out
}

// ChunkStats returns zone maps index-aligned with ScanChunks(target, ·):
// each a merge of the entries of the chunk's segment rows.
func (s *linearStore) ChunkStats(target int) []array.ChunkStats {
	ranges := chunkRanges(s.total, target, segCells)
	out := newChunkStats(len(ranges), len(s.dims), s.attrs)
	var g *grid // built when an entry is missing
	for ci, r := range ranges {
		cs := &out[ci]
		for k := int(r[0] >> segShift); int64(k)<<segShift < r[1]; k++ {
			lz := s.live[k].Load()
			if lz == nil {
				if g == nil {
					g = s.grid()
				}
				lz = buildLive(g, k, int(min(segCells, s.total-int64(k)<<segShift)), len(s.dims))
				s.live[k].Store(lz)
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

func (s *linearStore) Bounds() (lo, hi []int64, ok bool) {
	lo = make([]int64, len(s.dims))
	hi = make([]int64, len(s.dims))
	for i, d := range s.dims {
		lo[i] = d.Start
		hi[i] = d.Index(s.sizes[i] - 1)
	}
	return lo, hi, true
}

// Clone shares every segment with the copy. From here on neither side
// owns a segment the other can see: whichever writes first copies.
func (s *linearStore) Clone() array.Store {
	out := &linearStore{
		scheme:   s.scheme,
		dims:     s.dims,
		attrs:    s.attrs,
		sizes:    s.sizes,
		strides:  s.strides,
		total:    s.total,
		liveCnt:  s.liveCnt,
		rowMajor: s.rowMajor,
		defaults: s.defaults,
		cols:     make([]*column, len(s.cols)),
		live:     make([]atomic.Pointer[liveZone], len(s.live)),
	}
	for i, c := range s.cols {
		out.cols[i] = c.clone()
	}
	for k := range s.live {
		out.live[k].Store(s.live[k].Load())
	}
	out.disown()
	s.disown()
	return out
}

// FloatColumn exposes the dense float column of attribute attr for
// bulk kernels and black-box marshaling — the stored slices when the
// column is one segment, a concatenation otherwise; ok is false when
// the attribute is not Float-typed.
func (s *linearStore) FloatColumn(attr int) (data []float64, valid []uint64, ok bool) {
	c := s.cols[attr]
	if c.typ != value.Float {
		return nil, nil, false
	}
	if len(c.segs) == 1 {
		return c.segs[0].f, c.segs[0].valid, true
	}
	data = make([]float64, 0, c.n)
	valid = make([]uint64, 0, (c.n+63)/64)
	for _, sg := range c.segs {
		data = append(data, sg.f...)
		valid = append(valid, sg.valid...)
	}
	return data, valid, true
}

// RowMajor reports the linearization order (true for Virtual, false
// for D-Order); black-box marshaling uses it to decide on a recast.
func (s *linearStore) RowMajor() bool { return s.rowMajor }

// DenseFloats is implemented by dense stores that can expose an
// attribute as a raw float column. The UDF marshaling layer (§6.2)
// uses it to hand arrays to external library functions.
type DenseFloats interface {
	FloatColumn(attr int) (data []float64, valid []uint64, ok bool)
	RowMajor() bool
}
