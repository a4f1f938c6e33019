// Package array defines the SciQL array model: named DIMENSION index
// attributes with declarative range constraints, non-index attributes
// with DEFAULT initialization, holes (NULL cells indistinguishable at
// the logical level from out-of-bounds space), and the Store interface
// behind which the adaptive storage schemes of the paper's Figure 1
// live.
package array

import (
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/value"
)

// Unbounded marks a dimension bound left open with '*' in the DDL.
const (
	UnboundedLow  = math.MinInt64
	UnboundedHigh = math.MaxInt64
)

// Dimension describes one DIMENSION-constrained index attribute. The
// sequence pattern start:final:step follows the paper's §3.1: for
// integers the defaults are start 0, step 1; '*' leaves an end open.
// Timestamp dimensions hold Unix microseconds, with Step 0 meaning
// "order only, any timestamp is valid" (the experiment array of §3.1).
type Dimension struct {
	Name string
	Typ  value.Type // value.Int or value.Timestamp
	// Start is the first valid index value; UnboundedLow if open.
	Start int64
	// End is the exclusive upper bound; UnboundedHigh if open.
	End int64
	// Step is the index increment; 0 is allowed only for Timestamp
	// dimensions and means the dimension merely enforces an order.
	Step int64
	// Check is an optional predicate over full cell coordinates that
	// carves the valid domain (the stripes/diagonal arrays of Fig. 2);
	// nil means every in-range index is valid.
	Check func(coords []int64) bool
	// CheckSQL preserves the CHECK clause text for catalog display.
	CheckSQL string
}

// Bounded reports whether both ends of the range are fixed.
func (d Dimension) Bounded() bool { return d.Start != UnboundedLow && d.End != UnboundedHigh }

// Size returns the number of valid index values of a bounded
// dimension, or -1 when unbounded.
func (d Dimension) Size() int64 {
	if !d.Bounded() {
		return -1
	}
	step := d.Step
	if step == 0 {
		step = 1
	}
	if d.End <= d.Start {
		return 0
	}
	return (d.End - d.Start + step - 1) / step
}

// Contains reports whether index value x falls on the dimension's
// sequence pattern (within bounds and on-step).
func (d Dimension) Contains(x int64) bool {
	if d.Start != UnboundedLow && x < d.Start {
		return false
	}
	if d.End != UnboundedHigh && x >= d.End {
		return false
	}
	if d.Step > 1 && d.Start != UnboundedLow {
		if (x-d.Start)%d.Step != 0 {
			return false
		}
	}
	return true
}

// Ordinal converts an index value to a zero-based position along the
// dimension. Only meaningful when Start is bounded.
func (d Dimension) Ordinal(x int64) int64 {
	step := d.Step
	if step == 0 {
		step = 1
	}
	return (x - d.Start) / step
}

// Index converts a zero-based ordinal back to the index value.
func (d Dimension) Index(ord int64) int64 {
	step := d.Step
	if step == 0 {
		step = 1
	}
	return d.Start + ord*step
}

func (d Dimension) String() string {
	fmtBound := func(b int64, open string) string {
		if b == UnboundedLow || b == UnboundedHigh {
			return open
		}
		return fmt.Sprintf("%d", b)
	}
	return fmt.Sprintf("%s %s DIMENSION[%s:%s:%d]", d.Name, d.Typ,
		fmtBound(d.Start, "*"), fmtBound(d.End, "*"), d.Step)
}

// Attr is a non-index attribute. Every cell covered by the dimensions
// holds the Default value until updated; a NULL value is a hole that
// scans skip (paper §3.1–3.2).
type Attr struct {
	Name string
	Typ  value.Type
	// Default initializes cells; a NULL default produces holes
	// everywhere until cells are assigned.
	Default value.Value
	// DefaultFn, when non-nil, computes the default from the cell
	// coordinates (derived columns like r = SQRT(x²+y²), §5.1).
	DefaultFn func(coords []int64) value.Value
	// Check is an optional content predicate that nullifies cells
	// outside the domain of validity (the sparse array of Fig. 2).
	Check func(v value.Value) bool
	// CheckSQL preserves the CHECK clause text.
	CheckSQL string
	// Nested describes the element schema for Array-typed attributes.
	Nested *Schema
}

// Schema is the logical shape of an array: its dimensions and
// attributes, in declaration order.
type Schema struct {
	Dims  []Dimension
	Attrs []Attr
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// DimIndex returns the position of the named dimension, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Store is the physical representation of an array's cells. The
// paper's runtime "selects the best representation based on the
// intrinsic properties of an array instance" (§2.2); each of the four
// schemes of Figure 1 implements this interface in internal/storage.
type Store interface {
	// Scheme names the storage scheme (Tabular, Virtual, DOrder, Slab).
	Scheme() string
	// Len returns the number of materialized (non-hole) cells.
	Len() int
	// Get returns attribute attr of the cell at coords. Holes and
	// out-of-bounds coordinates read as NULL — the paper makes the two
	// logically indistinguishable.
	Get(coords []int64, attr int) value.Value
	// Set writes attribute attr of the cell at coords. Writing NULL
	// punches a hole. Out-of-bounds writes error.
	Set(coords []int64, attr int, v value.Value) error
	// Scan visits every non-hole cell; a cell is a hole if all its
	// attributes are NULL. The coords and vals slices are reused
	// between calls; the callback must not retain them. Returning
	// false stops the scan.
	Scan(visit func(coords []int64, vals []value.Value) bool)
	// Bounds returns the current minimal bounding box (per-dimension
	// lo..hi inclusive index values) of materialized cells. Bounded
	// dimensions report their declared bounds.
	Bounds() (lo, hi []int64, ok bool)
	// Clone returns an independent version of the store: no later write
	// to either side — the source included — is visible to the other.
	// The two may share structure until then (the storage schemes share
	// every column segment and copy one when a write reaches it), and a
	// store that is no longer written may be cloned, and read, by any
	// number of goroutines at once.
	Clone() Store
}

// ChunkScan walks one chunk of a store's scan order. The coords and
// vals slices passed to visit are reused between calls and must not be
// retained; returning false stops the chunk's scan. Distinct ChunkScan
// closures own their buffers, so different chunks may run concurrently.
type ChunkScan func(visit func(coords []int64, vals []value.Value) bool)

// ChunkedScanner is implemented by stores whose scan can be split into
// independent, bounded chunks with attribute-column pruning — the unit
// of parallel array scans.
//
// ScanChunks partitions the store's Scan order into roughly `target`
// chunks (the result may be shorter or longer; at least one chunk is
// returned for a non-empty store). Running the chunks in slice order
// and concatenating their outputs visits exactly the cells Scan
// visits, in the same order — parallel scans that buffer per chunk and
// merge by index are therefore byte-identical to a serial scan.
//
// attrs selects the attribute columns to materialize: vals[i] passed
// to visit holds the value of attribute attrs[i]. A nil attrs keeps
// every attribute (vals[i] = attribute i). Cell liveness (hole
// skipping) is always judged on all attributes, exactly like Scan, so
// pruning never changes which cells are visited.
type ChunkedScanner interface {
	ScanChunks(target int, attrs []int) []ChunkScan
}

// DimRange restricts one dimension of a column scan to the index
// values Lo, Lo+Step, Lo+2*Step, ... below Hi. Full admits every value
// (the other fields are ignored); a Step below 2 makes the range
// contiguous, which is also how gridless (order-only) dimensions are
// restricted.
type DimRange struct {
	Full         bool
	Lo, Hi, Step int64
}

// Contains reports whether the range admits index value v.
func (r DimRange) Contains(v int64) bool {
	if r.Full {
		return true
	}
	if v < r.Lo || v >= r.Hi {
		return false
	}
	return r.Step <= 1 || (v-r.Lo)%r.Step == 0
}

// ColumnBatch is a run of live cells of one chunk, in scan order, as
// typed columns: one Int (or Timestamp) vector per dimension holding
// the cells' coordinates, then one vector per selected attribute — the
// column layout of a scan result. Vectors may be zero-copy views of the
// store's own segments, so a batch must never be written to; it stays
// valid for as long as the store version it came from is not written
// (the engine never writes a published version, and DML reads a clone
// of the version it writes).
type ColumnBatch []bat.Vector

// Rows returns the number of cells in the batch.
func (b ColumnBatch) Rows() int {
	if len(b) == 0 {
		return 0
	}
	return b[0].Len()
}

// ColumnChunk walks one chunk of a store's scan order as non-empty
// column batches of at most max rows each; returning false from visit
// stops the walk. Distinct chunks share no mutable state, so they may
// run concurrently.
type ColumnChunk func(max int, visit func(b ColumnBatch) bool)

// ColumnScanner is the columnar face of a chunked store: chunk i of
// ColumnChunks(target, attrs, restrict) covers exactly the cells chunk
// i of ScanChunks(target, attrs) visits — and ChunkStats(target)[i]
// describes — minus those a restriction rejects, in the same order.
// attrs selects attribute columns as for ScanChunks (liveness is still
// judged on all attributes); restrict holds one DimRange per dimension,
// nil admitting everything. No value is boxed on the way: dense
// hole-free position ranges come back as views of the stored columns
// with the validity bitmap adopted word-wise and coordinates generated
// arithmetically, everything else as typed gathers.
type ColumnScanner interface {
	ColumnChunks(target int, attrs []int, restrict []DimRange) []ColumnChunk
}

// BulkWriter is the columnar face DML reads and writes a store
// through: the cells a statement ranges over come out as column
// batches, and typed vectors go back in at coordinate columns.
type BulkWriter interface {
	// CoveredChunks is ColumnChunks(target, nil, restrict) over the
	// cells an UPDATE or DELETE ranges over: when every dimension is
	// bounded, every cell the dimensions cover and their CHECKs admit —
	// a hole arrives as a row of NULLs — and the live cells otherwise.
	CoveredChunks(target int, restrict []DimRange) []ColumnChunk
	// Scatter sets attribute attr of the cell at (coords[0][i], ...,
	// coords[nd-1][i]) to vals[i], for every row i, with the effect of
	// one Set per row in row order; the coordinate columns are Int or
	// Timestamp vectors without NULLs.
	Scatter(coords []bat.Vector, attr int, vals bat.Vector) error
	// ObserveCopies makes fn the one account of what writes to this
	// store copy: Clone shares structure with its source, and fn hears
	// the byte count of every later copy — one call per segment — a write
	// makes, through Set or Scatter alike. It returns the observer fn
	// replaces, so a statement can listen in for its duration and
	// forward. Clone does not carry the observer over.
	ObserveCopies(fn func(bytes int64)) (prev func(bytes int64))
}

// AttrStats is the zone map of one attribute over one chunk: the
// number of live cells whose value is NULL, and the minimum/maximum
// non-NULL value under value.Compare ordering. When every live cell's
// value is NULL (or the chunk is empty) Min and Max are typed NULLs —
// a NULL bound means "no usable range", never "range includes NULL",
// since NULL cells can only satisfy IS NULL predicates.
type AttrStats struct {
	Nulls    int64
	Min, Max value.Value
}

// ChunkStats is the zone map of one scan chunk: the live-cell count,
// the inclusive per-dimension coordinate bounding box of those cells,
// and per-attribute statistics indexed by schema attribute position.
// A chunk with Rows == 0 has meaningless bounds and can always be
// skipped.
type ChunkStats struct {
	Rows         int64
	DimLo, DimHi []int64
	Attrs        []AttrStats
}

// StatsProvider is implemented by stores that maintain per-chunk zone
// maps. ChunkStats(target) returns statistics index-aligned with the
// chunks ScanChunks(target, attrs) yields for the same target on the
// same (unmutated) store: stats[i] exactly describes the live cells
// chunk i visits. Implementations recompute lazily after mutations, so
// the stats are always exact; callers must still verify
// len(stats) == len(chunks) before pairing them.
type StatsProvider interface {
	ChunkStats(target int) []ChunkStats
}

// AllAttrs expands ChunkedScanner's nil attribute selection to the
// identity list over n attributes; a non-nil selection passes through.
func AllAttrs(attrs []int, n int) []int {
	if attrs != nil {
		return attrs
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Array binds a schema to a storage instance. It is the engine's
// first-class citizen.
type Array struct {
	Name   string
	Schema Schema
	Store  Store
}

// NumDims returns the dimensionality.
func (a *Array) NumDims() int { return len(a.Schema.Dims) }

// Get reads a single attribute at coords (NULL for holes/out of bounds).
func (a *Array) Get(coords []int64, attr int) value.Value {
	if !a.ValidCoords(coords) {
		if attr < len(a.Schema.Attrs) {
			return value.NewNull(a.Schema.Attrs[attr].Typ)
		}
		return value.NewNull(value.Unknown)
	}
	return a.Store.Get(coords, attr)
}

// Set writes a single attribute at coords, enforcing dimension and
// content CHECK constraints: writes outside the valid domain are
// ignored for CHECK-carved dimensions, and content checks nullify
// failing values (Fig. 2 semantics).
func (a *Array) Set(coords []int64, attr int, v value.Value) error {
	if !a.ValidCoords(coords) {
		return fmt.Errorf("array %s: coordinates %v outside the valid domain", a.Name, coords)
	}
	at := a.Schema.Attrs[attr]
	if at.Check != nil && !v.Null && !at.Check(v) {
		v = value.NewNull(at.Typ)
	}
	return a.Store.Set(coords, attr, v)
}

// ValidCoords reports whether coords fall inside every dimension's
// range and satisfy all dimension CHECK predicates.
func (a *Array) ValidCoords(coords []int64) bool {
	if len(coords) != len(a.Schema.Dims) {
		return false
	}
	for i, d := range a.Schema.Dims {
		if !d.Contains(coords[i]) {
			return false
		}
	}
	for _, d := range a.Schema.Dims {
		if d.Check != nil && !d.Check(coords) {
			return false
		}
	}
	return true
}

// BoundingBox returns the per-dimension inclusive lo..hi ranges that a
// full listing of the array would cover: declared bounds where fixed,
// else the minimal bounding rectangle of materialized cells (§3.1).
func (a *Array) BoundingBox() (lo, hi []int64, err error) {
	slo, shi, ok := a.Store.Bounds()
	lo = make([]int64, len(a.Schema.Dims))
	hi = make([]int64, len(a.Schema.Dims))
	for i, d := range a.Schema.Dims {
		switch {
		case d.Bounded():
			lo[i], hi[i] = d.Start, d.End-stepOf(d)
			if d.Step > 1 {
				// Snap the inclusive upper bound onto the step grid.
				hi[i] = d.Start + (d.Size()-1)*d.Step
			}
		case ok:
			lo[i], hi[i] = slo[i], shi[i]
		default:
			return nil, nil, fmt.Errorf("array %s: unbounded dimension %s with no cells", a.Name, d.Name)
		}
	}
	return lo, hi, nil
}

func stepOf(d Dimension) int64 {
	if d.Step <= 0 {
		return 1
	}
	return d.Step
}

// CellCount returns the number of cells a full listing would produce
// (the bounding-box volume), or -1 if the array is unbounded and empty.
func (a *Array) CellCount() int64 {
	lo, hi, err := a.BoundingBox()
	if err != nil {
		return -1
	}
	n := int64(1)
	for i, d := range a.Schema.Dims {
		step := stepOf(d)
		n *= (hi[i]-lo[i])/step + 1
	}
	return n
}

// Clone returns an independent version of the array (Store.Clone).
func (a *Array) Clone() *Array {
	return &Array{Name: a.Name, Schema: a.Schema, Store: a.Store.Clone()}
}
