package storage

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// DefaultSlabSize is the per-dimension edge length of a slab block.
// The SciDB-inspired n-ary Slabs scheme (§2.2) breaks a sizeable array
// into rectangles; 64 keeps a 2-D float slab at 32 KiB, L1-friendly.
const DefaultSlabSize = 64

// slabStore is the n-ary Slabs scheme of Figure 1: the array is broken
// into fixed-size rectangles allocated on demand. It supports
// unbounded dimensions (new slabs appear as cells materialize) and is
// the natural unit for parallel processing.
type slabStore struct {
	dims     []array.Dimension
	attrs    []array.Attr
	slabSize int64
	// vol is the number of cells of one slab.
	vol int
	// blocks maps packed slab coordinates to dense blocks. The map is
	// the store's own; the blocks are shared with clones until written.
	blocks map[string]*slabBlock
	live   int
	// bounds tracking for unbounded dims.
	haveCells bool
	lo, hi    []int64
	cow
}

// slabBlock is one slab: a segment per attribute, vol cells each. Like
// a segment it is immutable once a second store shares it.
type slabBlock struct {
	own *owner
	// origin is the index value of the block's low corner.
	origin []int64
	segs   []*segment
	// zone is the block's lazily built liveness entry.
	zone atomic.Pointer[liveZone]
}

// NewSlab creates a slab store with the default slab size.
func NewSlab(schema array.Schema) (array.Store, error) {
	return NewSlabSized(schema, DefaultSlabSize)
}

// NewSlabSized creates a slab store with a custom slab edge length,
// used by the slab-size ablation bench.
func NewSlabSized(schema array.Schema, slabSize int64) (array.Store, error) {
	s := &slabStore{
		dims:     schema.Dims,
		attrs:    schema.Attrs,
		slabSize: slabSize,
		vol:      1,
		blocks:   make(map[string]*slabBlock),
		lo:       make([]int64, len(schema.Dims)),
		hi:       make([]int64, len(schema.Dims)),
	}
	s.disown()
	for range s.dims {
		s.vol *= int(slabSize)
	}
	// Bounded arrays with non-NULL defaults materialize eagerly so all
	// covered cells exist, as the array semantics require.
	if allBounded(s.dims) && anyNonNullDefault(s.attrs) {
		coords := make([]int64, len(s.dims))
		var fill func(d int)
		fill = func(d int) {
			if d == len(s.dims) {
				if !dimChecksPass(s.dims, coords) {
					return
				}
				key, pos := s.slabKey(coords)
				blk := s.writableBlock(key, coords)
				live := false
				for ai, at := range s.attrs {
					dv := defaultValue(at, coords)
					blk.segs[ai].set(pos, dv)
					if !dv.Null {
						live = true
					}
				}
				if live {
					s.live++
					s.extendBounds(coords)
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

func (s *slabStore) extendBounds(coords []int64) {
	if !s.haveCells {
		copy(s.lo, coords)
		copy(s.hi, coords)
		s.haveCells = true
		return
	}
	for i, c := range coords {
		if c < s.lo[i] {
			s.lo[i] = c
		}
		if c > s.hi[i] {
			s.hi[i] = c
		}
	}
}

// slabKey returns the packed slab coordinates for coords and the
// in-block position.
func (s *slabStore) slabKey(coords []int64) (key string, pos int) {
	buf := make([]byte, 8*len(coords))
	p := int64(0)
	for i, c := range coords {
		ord := s.dims[i].Ordinal(c)
		sc := floorDiv(ord, s.slabSize)
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(sc))
		within := ord - sc*s.slabSize
		p = p*s.slabSize + within
	}
	return string(buf), int(p)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// writableBlock returns the slab stored under key for writing under
// the store's current owner, allocating it (it holds coords) when
// absent and privatizing it — the block, not yet its segments — when
// another store version may share it.
func (s *slabStore) writableBlock(key string, coords []int64) *slabBlock {
	blk, own := s.blocks[key], s.own.Load()
	switch {
	case blk == nil:
		blk = &slabBlock{own: own, origin: make([]int64, len(coords)), segs: make([]*segment, len(s.attrs))}
		for i, c := range coords {
			ord := s.dims[i].Ordinal(c)
			blk.origin[i] = s.dims[i].Index(floorDiv(ord, s.slabSize) * s.slabSize)
		}
		for ai, at := range s.attrs {
			blk.segs[ai] = newSegment(at.Typ, s.vol, own)
		}
	case blk.own != own:
		shared := blk
		blk = &slabBlock{own: own, origin: shared.origin, segs: append([]*segment(nil), shared.segs...)}
		blk.zone.Store(shared.zone.Load())
	default:
		return blk
	}
	s.blocks[key] = blk
	return blk
}

// writable returns attribute ai's segment of a writable block for
// writing, privatizing it first when shared.
func (s *slabStore) writable(blk *slabBlock, ai int) *segment {
	sg := blk.segs[ai]
	if sg.own != blk.own {
		var bytes int64
		sg, bytes = sg.clone(blk.own)
		blk.segs[ai] = sg
		s.privatized(bytes)
	}
	return sg
}

func (s *slabStore) Scheme() string { return "slab" }
func (s *slabStore) Len() int       { return s.live }

func (s *slabStore) Get(coords []int64, attr int) value.Value {
	key, pos := s.slabKey(coords)
	blk := s.blocks[key]
	if blk == nil {
		return value.NewNull(s.attrs[attr].Typ)
	}
	return blk.segs[attr].get(pos)
}

func (s *slabStore) Set(coords []int64, attr int, v value.Value) error {
	key, pos := s.slabKey(coords)
	if s.blocks[key] == nil && v.Null {
		return nil // hole write into an unallocated slab
	}
	blk := s.writableBlock(key, coords)
	wasHole := s.posIsHole(blk, pos)
	if wasHole && !v.Null {
		// Materializing a fresh cell: fill sibling attrs with defaults.
		for ai, at := range s.attrs {
			if ai == attr {
				continue
			}
			if dv := defaultValue(at, coords); !dv.Null {
				s.writable(blk, ai).set(pos, dv)
			}
		}
	}
	s.writable(blk, attr).set(pos, v)
	nowHole := s.posIsHole(blk, pos)
	switch {
	case wasHole && !nowHole:
		s.live++
		s.extendBounds(coords)
	case !wasHole && nowHole:
		s.live--
	default:
		return nil
	}
	blk.zone.Store(nil)
	return nil
}

func (s *slabStore) posIsHole(blk *slabBlock, pos int) bool {
	for _, c := range blk.segs {
		if c.isValid(pos) {
			return false
		}
	}
	return true
}

// sortedKeys returns the slab keys in the deterministic scan order.
func (s *slabStore) sortedKeys() []string {
	keys := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scanBlock visits the non-hole cells of one slab in position order,
// materializing the attribute columns listed in cols; false return
// from visit stops the walk (and is propagated).
func (s *slabStore) scanBlock(blk *slabBlock, cols []int, coords []int64, vals []value.Value, visit func(coords []int64, vals []value.Value) bool) bool {
	for pos := 0; pos < s.vol; pos++ {
		if s.posIsHole(blk, pos) {
			continue
		}
		// Decode in-block position to coordinates.
		p := int64(pos)
		for i := len(s.dims) - 1; i >= 0; i-- {
			within := p % s.slabSize
			p /= s.slabSize
			step := s.dims[i].Step
			if step <= 0 {
				step = 1
			}
			coords[i] = blk.origin[i] + within*step
		}
		for vi, ai := range cols {
			vals[vi] = blk.segs[ai].get(pos)
		}
		if !visit(coords, vals) {
			return false
		}
	}
	return true
}

func (s *slabStore) Scan(visit func(coords []int64, vals []value.Value) bool) {
	coords := make([]int64, len(s.dims))
	vals := make([]value.Value, len(s.attrs))
	cols := array.AllAttrs(nil, len(s.attrs))
	for _, k := range s.sortedKeys() {
		if !s.scanBlock(s.blocks[k], cols, coords, vals, visit) {
			return
		}
	}
}

// ScanChunks splits the sorted slab list into contiguous groups — the
// slab is the natural unit of parallelism (§2.2) — so concatenating
// the chunks in order reproduces Scan exactly. Only the attribute
// columns in attrs are materialized.
func (s *slabStore) ScanChunks(target int, attrs []int) []array.ChunkScan {
	cols := array.AllAttrs(attrs, len(s.attrs))
	keys := s.sortedKeys()
	ranges := chunkRanges(int64(len(keys)), target, 1)
	out := make([]array.ChunkScan, len(ranges))
	for ci, r := range ranges {
		group := keys[r[0]:r[1]]
		out[ci] = func(visit func(coords []int64, vals []value.Value) bool) {
			coords := make([]int64, len(s.dims))
			vals := make([]value.Value, len(cols))
			for _, k := range group {
				if !s.scanBlock(s.blocks[k], cols, coords, vals, visit) {
					return
				}
			}
		}
	}
	return out
}

// ChunkStats returns zone maps index-aligned with ScanChunks(target, ·):
// each a merge of the entries of the chunk's slabs.
func (s *slabStore) ChunkStats(target int) []array.ChunkStats {
	keys := s.sortedKeys()
	ranges := chunkRanges(int64(len(keys)), target, 1)
	out := newChunkStats(len(ranges), len(s.dims), s.attrs)
	for ci, r := range ranges {
		cs := &out[ci]
		for _, k := range keys[r[0]:r[1]] {
			blk := s.blocks[k]
			lz := blk.zone.Load()
			if lz == nil {
				lz = buildLive(s.grid(blk), 0, s.vol, len(s.dims))
				blk.zone.Store(lz)
			}
			addLive(cs, lz)
			for ai, sg := range blk.segs {
				addZone(&cs.Attrs[ai], sg.stats())
			}
		}
		finishStats(cs)
	}
	return out
}

func (s *slabStore) Bounds() (lo, hi []int64, ok bool) {
	if !s.haveCells {
		return nil, nil, false
	}
	return append([]int64(nil), s.lo...), append([]int64(nil), s.hi...), true
}

// Clone shares every slab with the copy; see linearStore.Clone.
func (s *slabStore) Clone() array.Store {
	out := &slabStore{
		dims:      s.dims,
		attrs:     s.attrs,
		slabSize:  s.slabSize,
		vol:       s.vol,
		blocks:    make(map[string]*slabBlock, len(s.blocks)),
		live:      s.live,
		haveCells: s.haveCells,
		lo:        append([]int64(nil), s.lo...),
		hi:        append([]int64(nil), s.hi...),
	}
	for k, blk := range s.blocks {
		out.blocks[k] = blk
	}
	out.disown()
	s.disown()
	return out
}

// NumSlabs reports the number of allocated slabs (parallelism units).
func (s *slabStore) NumSlabs() int { return len(s.blocks) }
