package bat

import "repro/internal/value"

// Storage-backed vectors: the columnar scan face of internal/storage
// hands its dense typed column slices to the kernels without copying.
// The constructors below wrap a data slice as-is and adopt the
// storage validity bitmap (1 bit = value present) word by word — the
// vector's own bitmap marks NULLs, so the words are inverted, shifted
// to the slice's first position and trimmed to its length, never set
// element by element. A range without NULLs carries no bitmap at all.
// Like every view, the results must not be mutated.

// nullsFromValidity converts the n validity bits starting at bit off of
// valid into a NULL bitmap. Positions past the end of valid count as
// absent. A nil valid means "everything present".
func nullsFromValidity(valid []uint64, off, n int) nullset {
	if valid == nil || n == 0 {
		return nullset{}
	}
	words := (n + 63) / 64
	w0, sh := off>>6, uint(off)&63
	var bits []uint64
	for k := 0; k < words; k++ {
		var v uint64
		if i := w0 + k; i < len(valid) {
			v = valid[i] >> sh
		}
		if i := w0 + k + 1; sh != 0 && i < len(valid) {
			v |= valid[i] << (64 - sh)
		}
		nulls := ^v
		if rem := uint(n) & 63; k == words-1 && rem != 0 {
			nulls &= (uint64(1) << rem) - 1
		}
		if nulls != 0 && bits == nil {
			bits = make([]uint64, words)
		}
		if bits != nil {
			bits[k] = nulls
		}
	}
	return nullset{bits: bits}
}

// NewFloatVectorValid wraps data as a Float column whose element i is
// NULL when validity bit off+i is clear.
func NewFloatVectorValid(data []float64, valid []uint64, off int) *FloatVector {
	return &FloatVector{data: data, nulls: nullsFromValidity(valid, off, len(data))}
}

// NewIntVectorValid is NewFloatVectorValid for Int and Timestamp columns.
func NewIntVectorValid(t value.Type, data []int64, valid []uint64, off int) *IntVector {
	return &IntVector{typ: t, data: data, nulls: nullsFromValidity(valid, off, len(data))}
}

// NewBoolVectorValid is NewFloatVectorValid for Bool columns.
func NewBoolVectorValid(data []bool, valid []uint64, off int) *BoolVector {
	return &BoolVector{data: data, nulls: nullsFromValidity(valid, off, len(data))}
}

// NewStringVectorValid is NewFloatVectorValid for String columns.
func NewStringVectorValid(data []string, valid []uint64, off int) *StringVector {
	return &StringVector{data: data, nulls: nullsFromValidity(valid, off, len(data))}
}

// NewAnyVector wraps boxed values (nested arrays) as a column of type
// t; NULLs are the elements whose Null flag is set.
func NewAnyVector(t value.Type, data []value.Value) *AnyVector {
	return &AnyVector{typ: t, data: data}
}

// FoldGrouped folds n rows of v into aggregate states, in row order and
// with exactly the effect of one AggState.Add per row: row k of the
// fold is element sel[k] of v (element k when sel is nil) and lands in
// states[gids[k]] (states[0] when gids is nil — plain aggregation).
// Int, Timestamp and Float columns fold in typed loops; anything else
// boxes per element.
func FoldGrouped(states []AggState, gids []int32, v Vector, sel []int, n int) {
	switch t := v.(type) {
	case *FloatVector:
		hasNulls := len(t.nulls.bits) != 0
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = sel[k]
			}
			if hasNulls && t.nulls.get(i) {
				continue
			}
			s := &states[0]
			if gids != nil {
				s = &states[gids[k]]
			}
			x := t.data[i]
			if s.anyV && (s.min.Typ != value.Float || s.max.Typ != value.Float) {
				s.Add(value.NewFloat(x))
				continue
			}
			s.count++
			s.isInt = false
			s.sum += x
			if !s.anyV {
				s.min, s.max, s.anyV = value.NewFloat(x), value.NewFloat(x), true
				continue
			}
			if x < s.min.F {
				s.min.F = x
			}
			if x > s.max.F {
				s.max.F = x
			}
		}
	case *IntVector:
		hasNulls := len(t.nulls.bits) != 0
		isInt := t.typ == value.Int
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = sel[k]
			}
			if hasNulls && t.nulls.get(i) {
				continue
			}
			s := &states[0]
			if gids != nil {
				s = &states[gids[k]]
			}
			x := t.data[i]
			if s.anyV && (s.min.Typ != t.typ || s.max.Typ != t.typ) {
				s.Add(value.Value{Typ: t.typ, I: x})
				continue
			}
			s.count++
			if !isInt {
				s.isInt = false
			}
			s.sum += float64(x)
			if !s.anyV {
				s.min, s.max, s.anyV = value.Value{Typ: t.typ, I: x}, value.Value{Typ: t.typ, I: x}, true
				continue
			}
			if x < s.min.I {
				s.min.I = x
			}
			if x > s.max.I {
				s.max.I = x
			}
		}
	default:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = sel[k]
			}
			s := &states[0]
			if gids != nil {
				s = &states[gids[k]]
			}
			s.Add(v.Get(i))
		}
	}
}
