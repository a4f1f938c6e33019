package storage

import (
	"math"
	"math/bits"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/value"
)

// This file is the columnar face of the storage schemes
// (array.ColumnScanner): scan chunks come out as batches of typed
// vectors instead of one boxed cell per callback. A dense scheme is a
// grid — cells in position order behind arithmetic coordinates — and a
// dimension restriction becomes position runs of that grid, never a
// per-cell test. A batch that is one hole-free run inside one segment
// row is a set of views over the stored segments; anything else (holes,
// several short runs, segment and slab boundaries, dead tabular rows)
// is a typed gather.

// wordMask returns the bits of bitmap word w that fall inside [lo, hi).
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; lo > base {
		m <<= uint(lo - base)
	}
	if end := (w + 1) << 6; hi < end {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// liveWord ORs word w of every column's validity bitmap in segment row
// k of g: a cell is live when any of its attributes is present.
func liveWord(g *grid, k, w int) uint64 {
	var live uint64
	for _, c := range g.cols[g.stored:] {
		if valid := c[k].valid; w < len(valid) {
			live |= valid[w]
		}
	}
	return live
}

// allLive reports whether every position of the non-empty range
// [lo, hi) of segment row k is live, a word at a time.
func allLive(g *grid, k, lo, hi int) bool {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		if m := wordMask(w, lo, hi); liveWord(g, k, w)&m != m {
			return false
		}
	}
	return true
}

// allValid is allLive for one segment's own bitmap.
func (sg *segment) allValid(lo, hi int) bool {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		if m := wordMask(w, lo, hi); w >= len(sg.valid) || sg.valid[w]&m != m {
			return false
		}
	}
	return true
}

// livePositions lists up to limit live positions of the non-empty
// range [lo, hi) of segment row k and the position to resume the walk
// from.
func livePositions(g *grid, k, lo, hi, limit int) (pos []int, next int) {
	pos = make([]int, 0, min(limit, hi-lo))
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		live := liveWord(g, k, w) & wordMask(w, lo, hi)
		for ; live != 0; live &= live - 1 {
			p := w<<6 + bits.TrailingZeros64(live)
			if len(pos) == limit {
				return pos, p
			}
			pos = append(pos, p)
		}
	}
	return pos, hi
}

// admittedPositions is livePositions for the positions admit accepts,
// live or not; base is the grid position of the segment row's start.
func admittedPositions(admit func(pos int64) bool, base int64, lo, hi, limit int) (pos []int, next int) {
	pos = make([]int, 0, min(limit, hi-lo))
	for p := lo; p < hi; p++ {
		if !admit(base + int64(p)) {
			continue
		}
		if len(pos) == limit {
			return pos, p
		}
		pos = append(pos, p)
	}
	return pos, hi
}

// gridDim is one dimension of a grid: how many cells it spans, the
// position distance between neighbours along it, and the index value
// of ordinal 0 plus the index distance between neighbours.
type gridDim struct {
	size, stride int64
	start, step  int64
	typ          value.Type
}

// grid is a dense block of cells in position order: a whole linear
// store, or one slab. Each column is its segments in position order,
// 1<<shift cells apiece (a slab's column is one segment, so its shift
// puts every position in segment 0). A grid without dims (the tabular
// scheme) keeps its coordinates as leading columns instead.
type grid struct {
	cols  [][]*segment
	shift uint
	dims  []gridDim
	order []int // dimensions from slowest- to fastest-varying
	// stored counts the leading columns that hold coordinates; they say
	// nothing about which cells are live.
	stored int
}

// oneSegment is the shift of a grid whose columns are single segments.
const oneSegment = 62

// gridBox is a dimension restriction in a grid's ordinals: the admitted
// half-open ordinal range per dimension, and the place in order of the
// fastest-varying dimension that is actually narrowed (-1: none).
type gridBox struct {
	lo, hi []int64
	inner  int
}

// ordinalCeil returns the first ordinal of d whose index value is at
// least v, clamped to [0, size].
func ordinalCeil(d gridDim, v int64) int64 {
	if v <= d.start {
		return 0
	}
	end := d.start + d.size*d.step
	if end < d.start { // a slab at the top of the index domain
		end = math.MaxInt64
	}
	if v >= end {
		return d.size
	}
	return (v - d.start + d.step - 1) / d.step
}

// box translates restrict into the grid's ordinals; ok is false when
// nothing can be admitted. Strides are not part of the box: the
// batcher filters them on the generated coordinate columns.
func (g *grid) box(restrict []array.DimRange) (b gridBox, ok bool) {
	b.inner = -1
	if restrict == nil {
		return b, true
	}
	b.lo, b.hi = make([]int64, len(g.dims)), make([]int64, len(g.dims))
	for i, d := range g.dims {
		b.hi[i] = d.size
		if r := restrict[i]; !r.Full {
			b.lo[i], b.hi[i] = ordinalCeil(d, r.Lo), ordinalCeil(d, r.Hi)
		}
		if b.lo[i] >= b.hi[i] {
			return b, false
		}
	}
	for k, i := range g.order {
		if b.lo[i] > 0 || b.hi[i] < g.dims[i].size {
			b.inner = k
		}
	}
	return b, true
}

// runs calls emit, in position order, for every maximal run of
// positions of [lo, hi) that lies inside the box; it stops and returns
// false when emit does. With the fastest-varying narrowed dimension j,
// the grid is a sequence of rows of stride(j)*size(j) positions: a row
// whose slower dimensions are admitted contributes the one run j's
// ordinal range cuts out of it.
func (g *grid) runs(b gridBox, lo, hi int, emit func(lo, hi int) bool) bool {
	if b.inner < 0 {
		return lo >= hi || emit(lo, hi)
	}
	var first, last int64
	for i, d := range g.dims {
		first += b.lo[i] * d.stride
		last += (b.hi[i] - 1) * d.stride
	}
	lo, hi = max(lo, int(first)), min(hi, int(last)+1)
	j := g.dims[g.order[b.inner]]
	jlo, jhi := b.lo[g.order[b.inner]]*j.stride, b.hi[g.order[b.inner]]*j.stride
	row := j.stride * j.size
nextRow:
	for base := int64(lo) / row * row; base < int64(hi); base += row {
		for _, i := range g.order[:b.inner] {
			if ord := base / g.dims[i].stride % g.dims[i].size; ord < b.lo[i] || ord >= b.hi[i] {
				continue nextRow
			}
		}
		if rlo, rhi := max(lo, int(base+jlo)), min(hi, int(base+jhi)); rlo < rhi && !emit(rlo, rhi) {
			return false
		}
	}
	return true
}

// piece is part of a pending batch: cells of segment row k of one grid
// that are either a position run [lo, hi) or, with pos set, an explicit
// position list — positions counted from the segment row's start. A
// piece never spans two segment rows, so its columns are views of
// single segments.
type piece struct {
	g      *grid
	k      int
	lo, hi int
	pos    []int
}

// base is the grid position of the piece's segment row.
func (p piece) base() int64 { return int64(p.k) << p.g.shift }

// fillCoords writes the piece's coordinates along dimension d into out
// and returns how many it wrote. A run is filled a stretch at a time —
// an arithmetic sequence along the fastest dimension, a constant along
// the others — not decoded position by position.
func (p piece) fillCoords(d int, out []int64) int {
	gd, base := p.g.dims[d], p.base()
	if p.pos != nil {
		for k, q := range p.pos {
			out[k] = gd.start + (base+int64(q))/gd.stride%gd.size*gd.step
		}
		return len(p.pos)
	}
	k := 0
	for q, hi := base+int64(p.lo), base+int64(p.hi); q < hi; {
		ord := q / gd.stride % gd.size
		v := gd.start + ord*gd.step
		if gd.stride == 1 {
			n := min(gd.size-ord, hi-q)
			for end := k + int(n); k < end; k++ {
				out[k] = v
				v += gd.step
			}
			q += n
			continue
		}
		n := min((q/gd.stride+1)*gd.stride, hi) - q
		for end := k + int(n); k < end; k++ {
			out[k] = v
		}
		q += n
	}
	return k
}

func (p piece) rows() int {
	if p.pos != nil {
		return len(p.pos)
	}
	return p.hi - p.lo
}

// column returns the piece's cells of grid column ci: a view of the
// stored segment for a run, a typed gather for a position list.
func (p piece) column(ci int) bat.Vector {
	if p.pos == nil {
		return p.g.cols[ci][p.k].view(p.lo, p.hi)
	}
	return gatherColumn([]piece{p}, ci, len(p.pos))
}

// coordBounds returns the inclusive coordinate range the piece spans
// along dimension d. For a run this is arithmetic on its two ends: the
// ordinals it touches are consecutive modulo the dimension's size, so
// they are [first, last] unless the run wraps around (or laps) the
// dimension, which makes them the whole dimension.
func (p piece) coordBounds(d int) (lo, hi int64) {
	gd, base := p.g.dims[d], p.base()
	olo, ohi := gd.size, int64(-1)
	if p.pos != nil {
		for _, q := range p.pos {
			ord := (base + int64(q)) / gd.stride % gd.size
			olo, ohi = min(olo, ord), max(ohi, ord)
		}
	} else {
		first, last := (base+int64(p.lo))/gd.stride, (base+int64(p.hi)-1)/gd.stride
		olo, ohi = first%gd.size, last%gd.size
		if last-first >= gd.size || ohi < olo {
			olo, ohi = 0, gd.size-1
		}
	}
	return gd.start + olo*gd.step, gd.start + ohi*gd.step
}

// batcher receives the pieces a chunk walk produces. By default it cuts
// them into column batches of at most max rows for visit; with sink
// set it hands every piece (of at most max cells) over as it comes,
// unassembled — what the zone-map build reads.
type batcher struct {
	attrs    []int            // grid columns to emit, in order
	restrict []array.DimRange // consulted for strides only; may be nil
	max      int
	visit    func(array.ColumnBatch) bool
	sink     func(p piece)
	pieces   []piece
	rows     int
}

// push takes one piece; false means the consumer stopped.
func (b *batcher) push(p piece) bool {
	if b.sink != nil {
		b.sink(p)
		return true
	}
	b.pieces = append(b.pieces, p)
	b.rows += p.rows()
	return b.rows < b.max || b.flush()
}

// cellFilter says which cells of a position range a walk keeps: the
// live ones by default, every one when covered, and with admit set the
// ones it accepts, live or not.
type cellFilter struct {
	covered bool
	admit   func(pos int64) bool
}

// addRange appends the cells of grid positions [lo, hi) of g that f
// keeps, cut at segment rows and flushed whenever a batch fills; false
// means the consumer stopped.
func (b *batcher) addRange(g *grid, lo, hi int, f cellFilter) bool {
	for lo < hi {
		k := lo >> g.shift
		base := k << g.shift
		l, end := lo-base, min(hi-base, 1<<g.shift)
		lo = base + end
		for l < end {
			room := b.max - b.rows
			p := piece{g: g, k: k, lo: l, hi: l + min(end-l, room)}
			switch {
			case f.admit != nil:
				p.pos, l = admittedPositions(f.admit, int64(base), l, end, room)
			case f.covered || allLive(g, k, p.lo, p.hi):
				l = p.hi
			default:
				p.pos, l = livePositions(g, k, l, end, room)
			}
			if p.pos != nil && len(p.pos) == 0 {
				continue
			}
			if !b.push(p) {
				return false
			}
		}
	}
	return true
}

// finish emits what is pending at the end of a chunk.
func (b *batcher) finish() {
	if b.rows > 0 {
		b.flush()
	}
}

// flush emits the pending pieces as one batch. A single run becomes
// views of the stored segments; anything else is gathered.
func (b *batcher) flush() bool {
	n, g := b.rows, b.pieces[0].g
	nd := len(g.dims)
	cols := make(array.ColumnBatch, nd+len(b.attrs))
	coords := make([]int64, nd*n)
	for d := 0; d < nd; d++ {
		out := coords[d*n : (d+1)*n : (d+1)*n]
		k := 0
		for _, p := range b.pieces {
			k += p.fillCoords(d, out[k:])
		}
		cols[d] = bat.NewIntVectorValid(g.dims[d].typ, out, nil, 0)
	}
	for i, ci := range b.attrs {
		if len(b.pieces) == 1 {
			cols[nd+i] = b.pieces[0].column(ci)
		} else {
			cols[nd+i] = gatherColumn(b.pieces, ci, n)
		}
	}
	b.pieces, b.rows = b.pieces[:0], 0
	if cols = strideFilter(cols, b.restrict, nd); cols.Rows() == 0 {
		return true
	}
	return b.visit(cols)
}

// strideFilter keeps the rows whose coordinates sit on every stepped
// restriction's stride — the one part of a restriction position runs
// cannot express.
func strideFilter(cols array.ColumnBatch, restrict []array.DimRange, nd int) array.ColumnBatch {
	var keep []int
	for d := 0; d < nd && restrict != nil; d++ {
		r := restrict[d]
		if r.Full || r.Step <= 1 {
			continue
		}
		coord := cols[d].(*bat.IntVector).Ints()
		if keep == nil {
			keep = make([]int, len(coord))
			for i := range keep {
				keep[i] = i
			}
		}
		kept := keep[:0]
		for _, i := range keep {
			if (coord[i]-r.Lo)%r.Step == 0 {
				kept = append(kept, i)
			}
		}
		keep = kept
	}
	if keep == nil || len(keep) == cols.Rows() {
		return cols
	}
	for i, v := range cols {
		cols[i] = v.Gather(keep)
	}
	return cols
}

// gatherSlice copies the pieces' elements out of one typed backing
// slice per grid.
func gatherSlice[T any](pieces []piece, ci, n int, data func(*segment) []T) []T {
	out := make([]T, 0, n)
	for _, p := range pieces {
		src := data(p.g.cols[ci][p.k])
		if p.pos == nil {
			out = append(out, src[p.lo:p.hi]...)
			continue
		}
		for _, q := range p.pos {
			out = append(out, src[q])
		}
	}
	return out
}

// gatherColumn builds the n-row vector of grid column ci over pieces.
func gatherColumn(pieces []piece, ci, n int) bat.Vector {
	valid := packValidity(pieces, ci, n)
	switch typ := pieces[0].g.cols[ci][0].typ; typ {
	case value.Float:
		return bat.NewFloatVectorValid(gatherSlice(pieces, ci, n, func(c *segment) []float64 { return c.f }), valid, 0)
	case value.Int, value.Timestamp:
		return bat.NewIntVectorValid(typ, gatherSlice(pieces, ci, n, func(c *segment) []int64 { return c.i }), valid, 0)
	case value.String:
		return bat.NewStringVectorValid(gatherSlice(pieces, ci, n, func(c *segment) []string { return c.s }), valid, 0)
	case value.Bool:
		return bat.NewBoolVectorValid(gatherSlice(pieces, ci, n, func(c *segment) []bool { return c.b }), valid, 0)
	default:
		out := gatherSlice(pieces, ci, n, func(c *segment) []value.Value { return c.a })
		for i := range out {
			if valid != nil && valid[i>>6]&(1<<(uint(i)&63)) == 0 {
				out[i] = value.NewNull(typ)
			}
		}
		return bat.NewAnyVector(typ, out)
	}
}

// packValidity gathers column ci's validity bits over pieces into a
// packed n-bit bitmap; nil when every gathered element is present.
func packValidity(pieces []piece, ci, n int) []uint64 {
	var out []uint64
	k := 0
	mark := func(c *segment, q int) {
		if !c.isValid(q) {
			if out == nil {
				out = make([]uint64, (n+63)/64)
				for w := range out {
					out[w] = ^uint64(0)
				}
			}
			out[k>>6] &^= 1 << (uint(k) & 63)
		}
		k++
	}
	for _, p := range pieces {
		c := p.g.cols[ci][p.k]
		if p.pos == nil {
			if c.allValid(p.lo, p.hi) {
				k += p.hi - p.lo
				continue
			}
			for q := p.lo; q < p.hi; q++ {
				mark(c, q)
			}
			continue
		}
		for _, q := range p.pos {
			mark(c, q)
		}
	}
	return out
}

// grid describes the whole store as one grid.
func (s *linearStore) grid() *grid {
	g := &grid{cols: make([][]*segment, len(s.cols)), shift: segShift, dims: make([]gridDim, len(s.dims)), order: make([]int, len(s.dims))}
	for ci, c := range s.cols {
		g.cols[ci] = c.segs
	}
	for i, d := range s.dims {
		g.dims[i] = gridDim{size: s.sizes[i], stride: s.strides[i], start: d.Start, step: d.Index(1) - d.Index(0), typ: d.Typ}
		g.order[i] = i
		if !s.rowMajor {
			g.order[i] = len(s.dims) - 1 - i
		}
	}
	return g
}

// chunkWalk feeds one chunk's admitted cells to b as pieces, in scan
// order.
type chunkWalk func(b *batcher)

// columnChunks puts the batch face on a store's chunk walks; sel lists
// the grid columns a batch carries after the generated coordinates.
func columnChunks(walks []chunkWalk, sel []int, restrict []array.DimRange) []array.ColumnChunk {
	out := make([]array.ColumnChunk, len(walks))
	for ci, walk := range walks {
		out[ci] = func(max int, visit func(array.ColumnBatch) bool) {
			walk(&batcher{attrs: sel, restrict: restrict, max: max, visit: visit})
		}
	}
	return out
}

// chunkWalks splits the position range exactly like ScanChunks. A
// covered walk keeps every cell the dimension CHECKs admit, live or not.
func (s *linearStore) chunkWalks(target int, restrict []array.DimRange, covered bool) []chunkWalk {
	g := s.grid()
	bx, ok := g.box(restrict)
	f := cellFilter{covered: covered}
	if covered && hasDimChecks(s.dims) {
		coords := make([]int64, len(s.dims))
		f.admit = func(pos int64) bool {
			s.coordsOf(pos, coords)
			return dimChecksPass(s.dims, coords)
		}
	}
	ranges := chunkRanges(s.total, target, segCells)
	out := make([]chunkWalk, len(ranges))
	for ci, r := range ranges {
		lo, hi := int(r[0]), int(r[1])
		out[ci] = func(b *batcher) {
			if ok && g.runs(bx, lo, hi, func(lo, hi int) bool { return b.addRange(g, lo, hi, f) }) {
				b.finish()
			}
		}
	}
	return out
}

func (s *linearStore) ColumnChunks(target int, attrs []int, restrict []array.DimRange) []array.ColumnChunk {
	return columnChunks(s.chunkWalks(target, restrict, false), array.AllAttrs(attrs, len(s.attrs)), restrict)
}

// grid describes one slab: row-major, slabSize cells per dimension.
func (s *slabStore) grid(blk *slabBlock) *grid {
	nd := len(s.dims)
	g := &grid{cols: make([][]*segment, len(blk.segs)), shift: oneSegment, dims: make([]gridDim, nd), order: make([]int, nd)}
	for ci := range blk.segs {
		g.cols[ci] = blk.segs[ci : ci+1]
	}
	stride := int64(1)
	for i := nd - 1; i >= 0; i-- {
		d := s.dims[i]
		g.dims[i] = gridDim{size: s.slabSize, stride: stride, start: blk.origin[i], step: d.Index(1) - d.Index(0), typ: d.Typ}
		g.order[i] = i
		stride *= s.slabSize
	}
	return g
}

// chunkWalks groups the sorted slabs exactly like ScanChunks; a batch
// may span slabs, and a full slab is a batch of views.
func (s *slabStore) chunkWalks(target int, restrict []array.DimRange) []chunkWalk {
	keys := s.sortedKeys()
	ranges := chunkRanges(int64(len(keys)), target, 1)
	out := make([]chunkWalk, len(ranges))
	for ci, r := range ranges {
		group := keys[r[0]:r[1]]
		out[ci] = func(b *batcher) {
			for _, k := range group {
				g := s.grid(s.blocks[k])
				bx, ok := g.box(restrict)
				if ok && !g.runs(bx, 0, s.vol, func(lo, hi int) bool { return b.addRange(g, lo, hi, cellFilter{}) }) {
					return
				}
			}
			b.finish()
		}
	}
	return out
}

func (s *slabStore) ColumnChunks(target int, attrs []int, restrict []array.DimRange) []array.ColumnChunk {
	return columnChunks(s.chunkWalks(target, restrict), array.AllAttrs(attrs, len(s.attrs)), restrict)
}

// grid describes the rows as a grid without arithmetic dimensions: its
// leading columns are the index columns.
func (s *tabularStore) grid() *grid {
	g := &grid{cols: make([][]*segment, 0, len(s.idx)+len(s.cols)), shift: segShift, stored: len(s.idx)}
	for _, c := range s.idx {
		g.cols = append(g.cols, c.segs)
	}
	for _, c := range s.cols {
		g.cols = append(g.cols, c.segs)
	}
	return g
}

// chunkWalks splits the row range exactly like ScanChunks. The
// coordinates are stored columns here, so a stretch of live admitted
// rows is a batch of views over index and attribute columns alike; the
// restriction is a typed test on the index columns.
func (s *tabularStore) chunkWalks(target int, restrict []array.DimRange) []chunkWalk {
	g := s.grid()
	admitted := func(row int) bool {
		if s.rowIsHole(row) {
			return false
		}
		for d, r := range restrict {
			if !r.Contains(s.coord(d, row)) {
				return false
			}
		}
		return true
	}
	ranges := chunkRanges(int64(s.rows), target, segCells)
	out := make([]chunkWalk, len(ranges))
	for ci, r := range ranges {
		lo, hi := int(r[0]), int(r[1])
		out[ci] = func(b *batcher) {
			for row := lo; row < hi; {
				for row < hi && !admitted(row) {
					row++
				}
				start := row
				for row < hi && admitted(row) {
					row++
				}
				if !b.addRange(g, start, row, cellFilter{covered: true}) {
					return
				}
			}
			b.finish()
		}
	}
	return out
}

func (s *tabularStore) ColumnChunks(target int, attrs []int, restrict []array.DimRange) []array.ColumnChunk {
	nd := len(s.dims)
	sel := make([]int, 0, nd+len(s.cols))
	for d := 0; d < nd; d++ {
		sel = append(sel, d)
	}
	for _, ai := range array.AllAttrs(attrs, len(s.attrs)) {
		sel = append(sel, nd+ai)
	}
	return columnChunks(s.chunkWalks(target, restrict), sel, nil)
}

func hasDimChecks(dims []array.Dimension) bool {
	for _, d := range dims {
		if d.Check != nil {
			return true
		}
	}
	return false
}
