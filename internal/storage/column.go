// Package storage implements the four alternative array storage
// schemes of the paper's Figure 1 — Tabular, Virtual, D-Order and
// n-ary Slabs — behind the array.Store interface, plus the adaptive
// selection policy of §2.2 that picks a representation from the
// intrinsic properties of an array instance.
//
// Every scheme keeps its attribute columns as segments: fixed-size
// typed stretches with a validity bitmap, immutable once shared.
// Clone copies segment pointers only; a write first privatizes the
// segments it touches (copy-on-write at segment granularity), so store
// versions — the snapshots of the MVCC catalog — share everything a
// writer left alone.
package storage

import (
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/value"
)

// segShift fixes the segment size of the positional schemes (virtual,
// dorder, tabular): 4096 cells, one scan batch (exec's vecBatchRows),
// so a batch is exactly one segment — a view, never a gather across
// two. Measured against 16Ki and 32Ki cells on the benchmark (seeds 1
// and 2): write_mixed copies and allocates least at 4Ki (8.7, 9.3 and
// 10.0 MB per op), scan_analytics throughput is the same at all three
// within run-to-run noise, and the per-segment bookkeeping costs 0.2
// resident bytes per cell more than at 32Ki (24.79 against 24.57).
const (
	segShift = 12
	segCells = 1 << segShift
)

// owner is the identity a store writes under. A segment is writable by
// exactly the store whose current owner created it; Clone gives both
// sides a new owner, so every segment they share is read-only to both
// from then on. The byte keeps distinct owners at distinct addresses.
type owner struct{ _ byte }

// cow is the copy-on-write state every scheme embeds.
type cow struct {
	// own is atomic because Clone replaces the owner of its source too,
	// and a published snapshot may be cloned by several writers at once.
	// Only writers read it, and a store has one writer at a time.
	own atomic.Pointer[owner]
	// notify, when set, hears of every privatization as it happens.
	notify func(bytes int64)
}

// disown makes every segment the store holds read-only to it.
func (c *cow) disown() { c.own.Store(new(owner)) }

func (c *cow) privatized(bytes int64) {
	if c.notify != nil {
		c.notify(bytes)
	}
}

// ObserveCopies implements array.BulkWriter.
func (c *cow) ObserveCopies(fn func(bytes int64)) (prev func(bytes int64)) {
	prev, c.notify = c.notify, fn
	return prev
}

// segment is one stretch of a typed attribute column with a validity
// bitmap (0 bit = NULL/hole): the dense C-array of the MonetDB BAT
// tail, specialized per type for bulk speed. Once a second store
// shares it nothing writes it again, so its zone-map entry — a pure
// function of its contents — is shared with it.
type segment struct {
	own   *owner
	typ   value.Type
	f     []float64
	i     []int64
	s     []string
	b     []bool
	a     []value.Value // boxed storage for Array-typed attributes
	valid []uint64
	// zone is the lazily built statistics entry; a write through the
	// owner drops it, a privatized copy starts without one.
	zone atomic.Pointer[segZone]
}

func newSegment(t value.Type, n int, own *owner) *segment {
	sg := &segment{own: own, typ: t, valid: make([]uint64, (n+63)/64)}
	switch t {
	case value.Float:
		sg.f = make([]float64, n)
	case value.Int, value.Timestamp:
		sg.i = make([]int64, n)
	case value.String:
		sg.s = make([]string, n)
	case value.Bool:
		sg.b = make([]bool, n)
	default:
		sg.a = make([]value.Value, n)
	}
	return sg
}

func (sg *segment) len() int {
	switch sg.typ {
	case value.Float:
		return len(sg.f)
	case value.Int, value.Timestamp:
		return len(sg.i)
	case value.String:
		return len(sg.s)
	case value.Bool:
		return len(sg.b)
	default:
		return len(sg.a)
	}
}

// elemBytes approximates the heap bytes one element occupies.
func (sg *segment) elemBytes() int64 {
	switch sg.typ {
	case value.Float, value.Int, value.Timestamp:
		return 8
	case value.String:
		return 16
	case value.Bool:
		return 1
	default:
		return 64
	}
}

// clone copies the segment for a new owner and reports the bytes.
func (sg *segment) clone(own *owner) (*segment, int64) {
	out := &segment{own: own, typ: sg.typ, valid: append([]uint64(nil), sg.valid...)}
	out.f = append([]float64(nil), sg.f...)
	out.i = append([]int64(nil), sg.i...)
	out.s = append([]string(nil), sg.s...)
	out.b = append([]bool(nil), sg.b...)
	out.a = append([]value.Value(nil), sg.a...)
	return out, int64(sg.len())*sg.elemBytes() + int64(len(sg.valid))*8
}

func (sg *segment) isValid(j int) bool {
	w := j >> 6
	return w < len(sg.valid) && sg.valid[w]&(1<<(uint(j)&63)) != 0
}

func (sg *segment) setValid(j int, ok bool) {
	w := j >> 6
	for len(sg.valid) <= w {
		sg.valid = append(sg.valid, 0)
	}
	if ok {
		sg.valid[w] |= 1 << (uint(j) & 63)
	} else {
		sg.valid[w] &^= 1 << (uint(j) & 63)
	}
}

func (sg *segment) get(j int) value.Value {
	if !sg.isValid(j) {
		return value.NewNull(sg.typ)
	}
	switch sg.typ {
	case value.Float:
		return value.NewFloat(sg.f[j])
	case value.Int:
		return value.NewInt(sg.i[j])
	case value.Timestamp:
		return value.NewTimestamp(sg.i[j])
	case value.String:
		return value.NewString(sg.s[j])
	case value.Bool:
		return value.NewBool(sg.b[j])
	default:
		return sg.a[j]
	}
}

// set writes element j; the caller owns the segment.
func (sg *segment) set(j int, v value.Value) {
	sg.touch()
	if v.Null {
		sg.setValid(j, false)
		return
	}
	sg.setValid(j, true)
	switch sg.typ {
	case value.Float:
		sg.f[j] = v.AsFloat()
	case value.Int, value.Timestamp:
		sg.i[j] = v.AsInt()
	case value.String:
		sg.s[j] = v.S
	case value.Bool:
		sg.b[j] = v.AsBool()
	default:
		sg.a[j] = v
	}
}

// touch drops the statistics entry before the owner writes.
func (sg *segment) touch() {
	if sg.zone.Load() != nil {
		sg.zone.Store(nil)
	}
}

// grow appends one NULL element and returns its position.
func (sg *segment) grow() int {
	sg.touch()
	j := sg.len()
	switch sg.typ {
	case value.Float:
		sg.f = append(sg.f, 0)
	case value.Int, value.Timestamp:
		sg.i = append(sg.i, 0)
	case value.String:
		sg.s = append(sg.s, "")
	case value.Bool:
		sg.b = append(sg.b, false)
	default:
		sg.a = append(sg.a, value.Value{})
	}
	sg.setValid(j, false)
	return j
}

// view returns elements [lo, hi) as a vector sharing the segment's
// backing array (capacity-capped, so appends to it reallocate).
func (sg *segment) view(lo, hi int) bat.Vector {
	switch sg.typ {
	case value.Float:
		return bat.NewFloatVectorValid(sg.f[lo:hi:hi], sg.valid, lo)
	case value.Int, value.Timestamp:
		return bat.NewIntVectorValid(sg.typ, sg.i[lo:hi:hi], sg.valid, lo)
	case value.String:
		return bat.NewStringVectorValid(sg.s[lo:hi:hi], sg.valid, lo)
	case value.Bool:
		return bat.NewBoolVectorValid(sg.b[lo:hi:hi], sg.valid, lo)
	}
	// Boxed (nested-array) storage keeps NULL in the validity bitmap,
	// not in the stored value: copy with the flag applied.
	out := make([]value.Value, hi-lo)
	for i := range out {
		out[i] = sg.get(lo + i)
	}
	return bat.NewAnyVector(sg.typ, out)
}

// column is a typed attribute column of the positional schemes: its
// segments in position order, each segCells long but possibly the last.
type column struct {
	typ  value.Type
	segs []*segment
	n    int
}

func newColumn(t value.Type, n int, own *owner) *column {
	c := &column{typ: t, n: n, segs: make([]*segment, 0, (n+segCells-1)/segCells)}
	for lo := 0; lo < n; lo += segCells {
		c.segs = append(c.segs, newSegment(t, min(segCells, n-lo), own))
	}
	return c
}

// clone shares every segment with the copy.
func (c *column) clone() *column {
	return &column{typ: c.typ, n: c.n, segs: append([]*segment(nil), c.segs...)}
}

func (c *column) isValid(i int) bool { return c.segs[i>>segShift].isValid(i & (segCells - 1)) }

func (c *column) get(i int) value.Value { return c.segs[i>>segShift].get(i & (segCells - 1)) }

// writable returns segment k for writing under st's current owner,
// privatizing it first when another store version may share it.
func (c *column) writable(k int, st *cow) *segment {
	sg, own := c.segs[k], st.own.Load()
	if sg.own != own {
		var bytes int64
		sg, bytes = sg.clone(own)
		c.segs[k] = sg
		st.privatized(bytes)
	}
	return sg
}

func (c *column) set(i int, v value.Value, st *cow) {
	c.writable(i>>segShift, st).set(i&(segCells-1), v)
}

// grow appends one NULL element, opening a segment when the last is
// full, and returns the element's position.
func (c *column) grow(st *cow) int {
	if c.n&(segCells-1) == 0 {
		c.segs = append(c.segs, newSegment(c.typ, 0, st.own.Load()))
	}
	c.writable(len(c.segs)-1, st).grow()
	c.n++
	return c.n - 1
}

// defaultValue resolves an attribute's creation-time default for the
// cell at coords.
func defaultValue(at array.Attr, coords []int64) value.Value {
	if at.DefaultFn != nil {
		v := at.DefaultFn(coords)
		if at.Check != nil && !v.Null && !at.Check(v) {
			return value.NewNull(at.Typ)
		}
		return v
	}
	if at.Default.Null && at.Default.Typ == value.Unknown {
		return value.NewNull(at.Typ)
	}
	v, err := value.Coerce(at.Default, at.Typ)
	if err != nil {
		return value.NewNull(at.Typ)
	}
	if at.Check != nil && !v.Null && !at.Check(v) {
		return value.NewNull(at.Typ)
	}
	return v
}

// dimChecksPass evaluates all dimension CHECK predicates at coords.
func dimChecksPass(dims []array.Dimension, coords []int64) bool {
	for _, d := range dims {
		if d.Check != nil && !d.Check(coords) {
			return false
		}
	}
	return true
}
