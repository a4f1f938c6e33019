// Package bat implements the column-store substrate the SciQL paper
// builds on: MonetDB-style Binary Association Tables. A BAT is a pair
// of dense one-dimensional arrays — a (usually virtual) OID head and a
// typed tail — optimized for bulk, column-at-a-time processing. SciQL
// maps array cells onto BAT tails with virtual OID heads, so array
// operations "run at top speed" with no impedance mismatch (paper §2.2).
package bat

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/value"
)

// Vector is a typed column with per-element NULL tracking. It is the
// tail side of a BAT. Implementations store data densely in a single
// Go slice (the C-array of the paper) plus a validity bitmap.
type Vector interface {
	// Type returns the element type.
	Type() value.Type
	// Len returns the number of elements.
	Len() int
	// Get returns element i as a dynamic value.
	Get(i int) value.Value
	// Set overwrites element i.
	Set(i int, v value.Value)
	// Append adds an element.
	Append(v value.Value)
	// IsNull reports whether element i is NULL.
	IsNull(i int) bool
	// Slice returns a new vector holding elements [lo, hi).
	Slice(lo, hi int) Vector
	// Gather returns a new vector with the elements at idx, in order.
	Gather(idx []int) Vector
	// Clone deep-copies the vector.
	Clone() Vector
}

// New returns an empty vector of the given type with capacity hint n.
func New(t value.Type, n int) Vector {
	switch t {
	case value.Int, value.Timestamp:
		return &IntVector{typ: t, data: make([]int64, 0, n)}
	case value.Float:
		return &FloatVector{data: make([]float64, 0, n)}
	case value.Bool:
		return &BoolVector{data: make([]bool, 0, n)}
	case value.String:
		return &StringVector{data: make([]string, 0, n)}
	case value.Array:
		return &AnyVector{typ: value.Array, data: make([]value.Value, 0, n)}
	default:
		return &AnyVector{typ: t, data: make([]value.Value, 0, n)}
	}
}

// nullset is a growable bitmap marking NULL positions. A nil nullset
// means "no NULLs", the common case, and costs nothing.
type nullset struct{ bits []uint64 }

func (n *nullset) set(i int) {
	w := i >> 6
	for len(n.bits) <= w {
		n.bits = append(n.bits, 0)
	}
	n.bits[w] |= 1 << (uint(i) & 63)
}

func (n *nullset) clear(i int) {
	w := i >> 6
	if w < len(n.bits) {
		n.bits[w] &^= 1 << (uint(i) & 63)
	}
}

func (n *nullset) get(i int) bool {
	w := i >> 6
	return w < len(n.bits) && n.bits[w]&(1<<(uint(i)&63)) != 0
}

func (n *nullset) any() bool {
	for _, w := range n.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

func (n *nullset) clone() nullset {
	return nullset{bits: append([]uint64(nil), n.bits...)}
}

// IntVector is a dense []int64 column (also used for timestamps,
// which are Unix-microsecond int64s).
type IntVector struct {
	typ   value.Type
	data  []int64
	nulls nullset
}

// NewIntVector wraps existing data as an Int column without copying.
func NewIntVector(data []int64) *IntVector { return &IntVector{typ: value.Int, data: data} }

// NewTimestampVector wraps existing micros as a Timestamp column.
func NewTimestampVector(data []int64) *IntVector { return &IntVector{typ: value.Timestamp, data: data} }

// Ints exposes the raw backing slice for bulk kernels.
func (v *IntVector) Ints() []int64 { return v.data }

func (v *IntVector) Type() value.Type { return v.typ }
func (v *IntVector) Len() int         { return len(v.data) }
func (v *IntVector) IsNull(i int) bool {
	return v.nulls.get(i)
}

func (v *IntVector) Get(i int) value.Value {
	if v.nulls.get(i) {
		return value.NewNull(v.typ)
	}
	return value.Value{Typ: v.typ, I: v.data[i]}
}

func (v *IntVector) Set(i int, val value.Value) {
	if val.Null {
		v.nulls.set(i)
		v.data[i] = 0
		return
	}
	v.nulls.clear(i)
	v.data[i] = val.AsInt()
}

func (v *IntVector) Append(val value.Value) {
	if val.Null {
		v.nulls.set(len(v.data))
		v.data = append(v.data, 0)
		return
	}
	v.data = append(v.data, val.AsInt())
}

func (v *IntVector) Slice(lo, hi int) Vector {
	out := &IntVector{typ: v.typ, data: append([]int64(nil), v.data[lo:hi]...)}
	for i := lo; i < hi; i++ {
		if v.nulls.get(i) {
			out.nulls.set(i - lo)
		}
	}
	return out
}

func (v *IntVector) Gather(idx []int) Vector {
	out := &IntVector{typ: v.typ, data: make([]int64, len(idx))}
	for o, i := range idx {
		out.data[o] = v.data[i]
		if v.nulls.get(i) {
			out.nulls.set(o)
		}
	}
	return out
}

func (v *IntVector) Clone() Vector {
	return &IntVector{typ: v.typ, data: append([]int64(nil), v.data...), nulls: v.nulls.clone()}
}

// FloatVector is a dense []float64 column.
type FloatVector struct {
	data  []float64
	nulls nullset
}

// NewFloatVector wraps existing data as a Float column without copying.
func NewFloatVector(data []float64) *FloatVector { return &FloatVector{data: data} }

// Floats exposes the raw backing slice for bulk kernels.
func (v *FloatVector) Floats() []float64 { return v.data }

func (v *FloatVector) Type() value.Type  { return value.Float }
func (v *FloatVector) Len() int          { return len(v.data) }
func (v *FloatVector) IsNull(i int) bool { return v.nulls.get(i) }

func (v *FloatVector) Get(i int) value.Value {
	if v.nulls.get(i) {
		return value.NewNull(value.Float)
	}
	return value.NewFloat(v.data[i])
}

func (v *FloatVector) Set(i int, val value.Value) {
	if val.Null {
		v.nulls.set(i)
		v.data[i] = 0
		return
	}
	v.nulls.clear(i)
	v.data[i] = val.AsFloat()
}

func (v *FloatVector) Append(val value.Value) {
	if val.Null {
		v.nulls.set(len(v.data))
		v.data = append(v.data, 0)
		return
	}
	v.data = append(v.data, val.AsFloat())
}

func (v *FloatVector) Slice(lo, hi int) Vector {
	out := &FloatVector{data: append([]float64(nil), v.data[lo:hi]...)}
	for i := lo; i < hi; i++ {
		if v.nulls.get(i) {
			out.nulls.set(i - lo)
		}
	}
	return out
}

func (v *FloatVector) Gather(idx []int) Vector {
	out := &FloatVector{data: make([]float64, len(idx))}
	for o, i := range idx {
		out.data[o] = v.data[i]
		if v.nulls.get(i) {
			out.nulls.set(o)
		}
	}
	return out
}

func (v *FloatVector) Clone() Vector {
	return &FloatVector{data: append([]float64(nil), v.data...), nulls: v.nulls.clone()}
}

// BoolVector is a dense []bool column.
type BoolVector struct {
	data  []bool
	nulls nullset
}

// Bools exposes the raw backing slice for bulk readers.
func (v *BoolVector) Bools() []bool { return v.data }

func (v *BoolVector) Type() value.Type  { return value.Bool }
func (v *BoolVector) Len() int          { return len(v.data) }
func (v *BoolVector) IsNull(i int) bool { return v.nulls.get(i) }

func (v *BoolVector) Get(i int) value.Value {
	if v.nulls.get(i) {
		return value.NewNull(value.Bool)
	}
	return value.NewBool(v.data[i])
}

func (v *BoolVector) Set(i int, val value.Value) {
	if val.Null {
		v.nulls.set(i)
		v.data[i] = false
		return
	}
	v.nulls.clear(i)
	v.data[i] = val.AsBool()
}

func (v *BoolVector) Append(val value.Value) {
	if val.Null {
		v.nulls.set(len(v.data))
		v.data = append(v.data, false)
		return
	}
	v.data = append(v.data, val.AsBool())
}

func (v *BoolVector) Slice(lo, hi int) Vector {
	out := &BoolVector{data: append([]bool(nil), v.data[lo:hi]...)}
	for i := lo; i < hi; i++ {
		if v.nulls.get(i) {
			out.nulls.set(i - lo)
		}
	}
	return out
}

func (v *BoolVector) Gather(idx []int) Vector {
	out := &BoolVector{data: make([]bool, len(idx))}
	for o, i := range idx {
		out.data[o] = v.data[i]
		if v.nulls.get(i) {
			out.nulls.set(o)
		}
	}
	return out
}

func (v *BoolVector) Clone() Vector {
	return &BoolVector{data: append([]bool(nil), v.data...), nulls: v.nulls.clone()}
}

// StringVector is a dense []string column.
type StringVector struct {
	data  []string
	nulls nullset
}

// Strings exposes the raw backing slice for bulk readers.
func (v *StringVector) Strings() []string { return v.data }

func (v *StringVector) Type() value.Type  { return value.String }
func (v *StringVector) Len() int          { return len(v.data) }
func (v *StringVector) IsNull(i int) bool { return v.nulls.get(i) }

func (v *StringVector) Get(i int) value.Value {
	if v.nulls.get(i) {
		return value.NewNull(value.String)
	}
	return value.NewString(v.data[i])
}

func (v *StringVector) Set(i int, val value.Value) {
	if val.Null {
		v.nulls.set(i)
		v.data[i] = ""
		return
	}
	v.nulls.clear(i)
	v.data[i] = val.S
}

func (v *StringVector) Append(val value.Value) {
	if val.Null {
		v.nulls.set(len(v.data))
		v.data = append(v.data, "")
		return
	}
	v.data = append(v.data, val.S)
}

func (v *StringVector) Slice(lo, hi int) Vector {
	out := &StringVector{data: append([]string(nil), v.data[lo:hi]...)}
	for i := lo; i < hi; i++ {
		if v.nulls.get(i) {
			out.nulls.set(i - lo)
		}
	}
	return out
}

func (v *StringVector) Gather(idx []int) Vector {
	out := &StringVector{data: make([]string, len(idx))}
	for o, i := range idx {
		out.data[o] = v.data[i]
		if v.nulls.get(i) {
			out.nulls.set(o)
		}
	}
	return out
}

func (v *StringVector) Clone() Vector {
	return &StringVector{data: append([]string(nil), v.data...), nulls: v.nulls.clone()}
}

// AnyVector stores arbitrary values boxed; used for nested-array
// columns and rare mixed-type intermediates.
type AnyVector struct {
	typ  value.Type
	data []value.Value
}

func (v *AnyVector) Type() value.Type  { return v.typ }
func (v *AnyVector) Len() int          { return len(v.data) }
func (v *AnyVector) IsNull(i int) bool { return v.data[i].Null }

func (v *AnyVector) Get(i int) value.Value      { return v.data[i] }
func (v *AnyVector) Set(i int, val value.Value) { v.data[i] = val }
func (v *AnyVector) Append(val value.Value)     { v.data = append(v.data, val) }

func (v *AnyVector) Slice(lo, hi int) Vector {
	return &AnyVector{typ: v.typ, data: append([]value.Value(nil), v.data[lo:hi]...)}
}

func (v *AnyVector) Gather(idx []int) Vector {
	out := &AnyVector{typ: v.typ, data: make([]value.Value, len(idx))}
	for o, i := range idx {
		out.data[o] = v.data[i]
	}
	return out
}

func (v *AnyVector) Clone() Vector {
	return &AnyVector{typ: v.typ, data: append([]value.Value(nil), v.data...)}
}

// FromValues builds a vector of type t from a value slice.
func FromValues(t value.Type, vals []value.Value) Vector {
	v := New(t, len(vals))
	for _, x := range vals {
		if !x.Null && x.Typ != t && t != value.Unknown {
			c, err := value.Coerce(x, t)
			if err == nil {
				x = c
			}
		}
		v.Append(x)
	}
	return v
}

// BAT is a binary association table: a head of OIDs and a typed tail.
// For base columns the head is virtual — a dense 0..n-1 range that
// needs no storage; the OID of a tail element is its position. That
// property is exactly what lets SciQL treat a dense array attribute as
// a BAT tail (paper §2.2).
type BAT struct {
	// HeadBase is the first OID of the (virtual) dense head.
	HeadBase int64
	// Head materializes OIDs when the head is not dense; nil means
	// virtual (dense from HeadBase).
	Head []int64
	// Tail holds the values.
	Tail Vector
}

// NewBAT creates a BAT with a virtual dense head starting at 0.
func NewBAT(tail Vector) *BAT { return &BAT{Tail: tail} }

// Len returns the number of (head, tail) pairs.
func (b *BAT) Len() int { return b.Tail.Len() }

// OID returns the head OID of pair i.
func (b *BAT) OID(i int) int64 {
	if b.Head == nil {
		return b.HeadBase + int64(i)
	}
	return b.Head[i]
}

// IsDenseHead reports whether the head is a virtual dense range.
func (b *BAT) IsDenseHead() bool { return b.Head == nil }

// Select returns the positions whose tail value satisfies pred.
func (b *BAT) Select(pred func(value.Value) bool) []int {
	var out []int
	n := b.Tail.Len()
	for i := 0; i < n; i++ {
		if pred(b.Tail.Get(i)) {
			out = append(out, i)
		}
	}
	return out
}

// SelectRangeFloat is a bulk kernel specialized for float tails: it
// returns positions with lo <= v <= hi, skipping NULLs.
func (b *BAT) SelectRangeFloat(lo, hi float64) []int {
	fv, ok := b.Tail.(*FloatVector)
	if !ok {
		return b.Select(func(v value.Value) bool {
			if v.Null {
				return false
			}
			f := v.AsFloat()
			return f >= lo && f <= hi
		})
	}
	var out []int
	for i, f := range fv.data {
		if fv.nulls.get(i) {
			continue
		}
		if f >= lo && f <= hi {
			out = append(out, i)
		}
	}
	return out
}

// SortPerm returns a permutation that orders the tail ascending
// (NULLs first), mirroring MonetDB's order index.
func (b *BAT) SortPerm() []int {
	n := b.Tail.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		return value.Compare(b.Tail.Get(perm[x]), b.Tail.Get(perm[y])) < 0
	})
	return perm
}

// Aggregate computes a named aggregate over the tail, ignoring NULLs
// per the SciQL rule that aggregates apply to non-NULL cells only.
func (b *BAT) Aggregate(fn string) (value.Value, error) {
	agg := NewAggState(fn)
	if agg == nil {
		return value.Value{}, fmt.Errorf("unknown aggregate %q", fn)
	}
	n := b.Tail.Len()
	for i := 0; i < n; i++ {
		agg.Add(b.Tail.Get(i))
	}
	return agg.Result(), nil
}

// AggState accumulates one aggregate. NULL inputs are skipped, per the
// paper: "the array aggregate operations SUM, COUNT, AVG, MIN and MAX
// are applied to non-NULL values only".
type AggState struct {
	fn    string
	count int64
	sum   float64
	min   value.Value
	max   value.Value
	isInt bool
	anyV  bool
}

// NewAggState creates an accumulator for SUM, COUNT, AVG, MIN or MAX
// (case-insensitive); nil if the name is unknown.
func NewAggState(fn string) *AggState {
	switch upper(fn) {
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
		return &AggState{fn: upper(fn), isInt: true}
	}
	return nil
}

// Reset clears the accumulator for reuse across groups.
func (a *AggState) Reset() {
	a.count, a.sum = 0, 0
	a.min, a.max = value.Value{}, value.Value{}
	a.isInt, a.anyV = true, false
}

// Add folds one input value into the aggregate.
func (a *AggState) Add(v value.Value) {
	if v.Null {
		return
	}
	a.count++
	if v.Typ != value.Int {
		a.isInt = false
	}
	a.sum += v.AsFloat()
	if !a.anyV || value.Compare(v, a.min) < 0 {
		a.min = v
	}
	if !a.anyV || value.Compare(v, a.max) > 0 {
		a.max = v
	}
	a.anyV = true
}

// Merge folds another accumulator's partial state into a; the
// morsel-driven executor merges per-worker partials with it. Merging
// is only valid for non-DISTINCT aggregates (partials may have seen
// overlapping DISTINCT values).
func (a *AggState) Merge(o *AggState) {
	if o.count == 0 && !o.anyV {
		return
	}
	if !o.isInt {
		a.isInt = false
	}
	a.count += o.count
	a.sum += o.sum
	if o.anyV {
		if !a.anyV || value.Compare(o.min, a.min) < 0 {
			a.min = o.min
		}
		if !a.anyV || value.Compare(o.max, a.max) > 0 {
			a.max = o.max
		}
		a.anyV = true
	}
}

// Result finalizes the aggregate. Empty input yields NULL (except
// COUNT, which yields 0), matching SQL semantics.
func (a *AggState) Result() value.Value {
	switch a.fn {
	case "COUNT":
		return value.NewInt(a.count)
	case "SUM":
		if a.count == 0 {
			return value.NewNull(value.Float)
		}
		if a.isInt {
			return value.NewInt(int64(a.sum))
		}
		return value.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return value.NewNull(value.Float)
		}
		return value.NewFloat(a.sum / float64(a.count))
	case "MIN":
		if !a.anyV {
			return value.NewNull(value.Float)
		}
		return a.min
	case "MAX":
		if !a.anyV {
			return value.NewNull(value.Float)
		}
		return a.max
	}
	return value.NewNull(value.Unknown)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 32
		}
	}
	return string(b)
}

// MinMaxFloat scans a float slice for min/max ignoring NaN; a bulk
// helper used when deriving bounding boxes of unbounded arrays.
func MinMaxFloat(xs []float64) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		ok = true
	}
	return lo, hi, ok
}
