// Bulk column-at-a-time kernels: the paper's §2.2 argument is that
// array operations map onto BAT operators that "run at top speed"
// because they process one dense C-array per operator instead of one
// cell per interpreter step. Each kernel consumes whole vectors (plus
// a validity bitmap) and produces a fresh vector; inputs are never
// mutated, so concurrent workers may share them. NULL semantics follow
// the SQL rules of internal/expr.Apply exactly: NULL operands
// propagate, integer and float division (and modulo) by zero yield
// NULL, comparisons with NULL yield NULL, and AND/OR use three-valued
// logic.
package bat

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/value"
)

// unionNulls ORs two validity bitmaps; nil-ish inputs cost nothing.
func unionNulls(a, b nullset) nullset {
	if len(a.bits) == 0 {
		return b.clone()
	}
	if len(b.bits) == 0 {
		return a.clone()
	}
	long, short := a.bits, b.bits
	if len(short) > len(long) {
		long, short = short, long
	}
	out := append([]uint64(nil), long...)
	for i, w := range short {
		out[i] |= w
	}
	return nullset{bits: out}
}

// NullCount counts the NULL elements of a vector.
func NullCount(v Vector) int {
	switch t := v.(type) {
	case *IntVector:
		return popcount(t.nulls)
	case *FloatVector:
		return popcount(t.nulls)
	case *BoolVector:
		return popcount(t.nulls)
	case *StringVector:
		return popcount(t.nulls)
	default:
		n := 0
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				n++
			}
		}
		return n
	}
}

// popcount counts the marked positions; bits past a vector's length
// are never set (set is only called with in-range indexes), so no
// tail masking is needed.
func popcount(n nullset) int {
	c := 0
	for _, w := range n.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// HasNonNull reports whether the vector holds at least one non-NULL
// element.
func HasNonNull(v Vector) bool { return v.Len() > NullCount(v) }

// --- integer arithmetic ------------------------------------------------------

func AddInt64(a, b *IntVector) *IntVector {
	n := len(a.data)
	out := &IntVector{typ: value.Int, data: make([]int64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

func SubInt64(a, b *IntVector) *IntVector {
	n := len(a.data)
	out := &IntVector{typ: value.Int, data: make([]int64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

func MulInt64(a, b *IntVector) *IntVector {
	n := len(a.data)
	out := &IntVector{typ: value.Int, data: make([]int64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// DivInt64 divides elementwise; division by zero yields NULL (the SQL
// convention the interpreter follows).
func DivInt64(a, b *IntVector) *IntVector {
	n := len(a.data)
	out := &IntVector{typ: value.Int, data: make([]int64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		if b.data[i] == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = a.data[i] / b.data[i]
	}
	return out
}

func ModInt64(a, b *IntVector) *IntVector {
	n := len(a.data)
	out := &IntVector{typ: value.Int, data: make([]int64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		if b.data[i] == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = a.data[i] % b.data[i]
	}
	return out
}

// Const variants avoid materializing broadcast vectors for the very
// common <column> op <literal> shape. The C suffix marks the constant
// side; SubCInt64/DivCInt64/ModCInt64 put the constant on the left.

func AddInt64C(a *IntVector, c int64) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = x + c
	}
	return out
}

func SubInt64C(a *IntVector, c int64) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = x - c
	}
	return out
}

func SubCInt64(c int64, a *IntVector) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = c - x
	}
	return out
}

func MulInt64C(a *IntVector, c int64) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = x * c
	}
	return out
}

func DivInt64C(a *IntVector, c int64) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	if c == 0 {
		for i := range a.data {
			out.nulls.set(i)
		}
		return out
	}
	for i, x := range a.data {
		out.data[i] = x / c
	}
	return out
}

func DivCInt64(c int64, a *IntVector) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		if x == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = c / x
	}
	return out
}

func ModInt64C(a *IntVector, c int64) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	if c == 0 {
		for i := range a.data {
			out.nulls.set(i)
		}
		return out
	}
	for i, x := range a.data {
		out.data[i] = x % c
	}
	return out
}

func ModCInt64(c int64, a *IntVector) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		if x == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = c % x
	}
	return out
}

// --- float arithmetic --------------------------------------------------------

func AddFloat64(a, b *FloatVector) *FloatVector {
	n := len(a.data)
	out := &FloatVector{data: make([]float64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

func SubFloat64(a, b *FloatVector) *FloatVector {
	n := len(a.data)
	out := &FloatVector{data: make([]float64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

func MulFloat64(a, b *FloatVector) *FloatVector {
	n := len(a.data)
	out := &FloatVector{data: make([]float64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

func DivFloat64(a, b *FloatVector) *FloatVector {
	n := len(a.data)
	out := &FloatVector{data: make([]float64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		if b.data[i] == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = a.data[i] / b.data[i]
	}
	return out
}

func ModFloat64(a, b *FloatVector) *FloatVector {
	n := len(a.data)
	out := &FloatVector{data: make([]float64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		if b.data[i] == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = math.Mod(a.data[i], b.data[i])
	}
	return out
}

func AddFloat64C(a *FloatVector, c float64) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = x + c
	}
	return out
}

func SubFloat64C(a *FloatVector, c float64) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = x - c
	}
	return out
}

func SubCFloat64(c float64, a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = c - x
	}
	return out
}

func MulFloat64C(a *FloatVector, c float64) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = x * c
	}
	return out
}

func DivFloat64C(a *FloatVector, c float64) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	if c == 0 {
		for i := range a.data {
			out.nulls.set(i)
		}
		return out
	}
	for i, x := range a.data {
		out.data[i] = x / c
	}
	return out
}

func DivCFloat64(c float64, a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		if x == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = c / x
	}
	return out
}

func ModFloat64C(a *FloatVector, c float64) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	if c == 0 {
		for i := range a.data {
			out.nulls.set(i)
		}
		return out
	}
	for i, x := range a.data {
		out.data[i] = math.Mod(x, c)
	}
	return out
}

func ModCFloat64(c float64, a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		if x == 0 {
			out.nulls.set(i)
			continue
		}
		out.data[i] = math.Mod(c, x)
	}
	return out
}

// --- unary and scalar-function kernels ---------------------------------------

func NegInt64(a *IntVector) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = -x
	}
	return out
}

func NegFloat64(a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = -x
	}
	return out
}

func AbsInt64(a *IntVector) *IntVector {
	out := &IntVector{typ: value.Int, data: make([]int64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		if x < 0 {
			x = -x
		}
		out.data[i] = x
	}
	return out
}

func AbsFloat64(a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = math.Abs(x)
	}
	return out
}

// MapFloat64 applies a pure float function elementwise (the SQRT/EXP/
// LN/trig builtin family).
func MapFloat64(f func(float64) float64, a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = f(x)
	}
	return out
}

// PowFloat64 is POWER(a, b) elementwise.
func PowFloat64(a, b *FloatVector) *FloatVector {
	n := len(a.data)
	out := &FloatVector{data: make([]float64, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = math.Pow(a.data[i], b.data[i])
	}
	return out
}

func PowFloat64C(a *FloatVector, c float64) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = math.Pow(x, c)
	}
	return out
}

func PowCFloat64(c float64, a *FloatVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = math.Pow(c, x)
	}
	return out
}

// Int64s returns a column's values as integers: an Int or Timestamp
// column's own backing slice (NULLs read 0), anything else converted
// value by value like value.AsInt.
func Int64s(v Vector) []int64 {
	if iv, ok := v.(*IntVector); ok {
		return iv.data
	}
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Get(i).AsInt()
	}
	return out
}

// ToFloat64 promotes an integer (or timestamp) vector to float, the
// way value.AsFloat does inside mixed-type arithmetic.
func ToFloat64(a *IntVector) *FloatVector {
	out := &FloatVector{data: make([]float64, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = float64(x)
	}
	return out
}

// --- comparisons -------------------------------------------------------------

// cmpTrue maps a three-way comparison result onto the operator.
func cmpTrue(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func cmp3i(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmp3f mirrors value.Compare on floats: NaN compares equal to
// everything (neither < nor > holds), exactly like the interpreter.
func cmp3f(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CmpInt64 compares elementwise with SQL semantics: NULL operands
// yield NULL.
func CmpInt64(op string, a, b *IntVector) *BoolVector {
	n := len(a.data)
	out := &BoolVector{data: make([]bool, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = cmpTrue(op, cmp3i(a.data[i], b.data[i]))
	}
	return out
}

func CmpInt64C(op string, a *IntVector, c int64) *BoolVector {
	out := &BoolVector{data: make([]bool, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = cmpTrue(op, cmp3i(x, c))
	}
	return out
}

func CmpFloat64(op string, a, b *FloatVector) *BoolVector {
	n := len(a.data)
	out := &BoolVector{data: make([]bool, n), nulls: unionNulls(a.nulls, b.nulls)}
	for i := 0; i < n; i++ {
		out.data[i] = cmpTrue(op, cmp3f(a.data[i], b.data[i]))
	}
	return out
}

func CmpFloat64C(op string, a *FloatVector, c float64) *BoolVector {
	out := &BoolVector{data: make([]bool, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = cmpTrue(op, cmp3f(x, c))
	}
	return out
}

// --- three-valued logic ------------------------------------------------------

// AndBool combines two boolean vectors under SQL three-valued logic:
// false dominates NULL, NULL dominates true.
func AndBool(a, b *BoolVector) *BoolVector {
	n := len(a.data)
	out := &BoolVector{data: make([]bool, n)}
	an, bn := a.nulls.bits != nil, b.nulls.bits != nil
	for i := 0; i < n; i++ {
		lnull := an && a.nulls.get(i)
		rnull := bn && b.nulls.get(i)
		lf := !lnull && !a.data[i]
		rf := !rnull && !b.data[i]
		switch {
		case lf || rf:
			// false
		case lnull || rnull:
			out.nulls.set(i)
		default:
			out.data[i] = true
		}
	}
	return out
}

// OrBool combines two boolean vectors under SQL three-valued logic:
// true dominates NULL, NULL dominates false.
func OrBool(a, b *BoolVector) *BoolVector {
	n := len(a.data)
	out := &BoolVector{data: make([]bool, n)}
	an, bn := a.nulls.bits != nil, b.nulls.bits != nil
	for i := 0; i < n; i++ {
		lnull := an && a.nulls.get(i)
		rnull := bn && b.nulls.get(i)
		lt := !lnull && a.data[i]
		rt := !rnull && b.data[i]
		switch {
		case lt || rt:
			out.data[i] = true
		case lnull || rnull:
			out.nulls.set(i)
		}
	}
	return out
}

// NotBool negates under three-valued logic (NOT NULL is NULL).
func NotBool(a *BoolVector) *BoolVector {
	out := &BoolVector{data: make([]bool, len(a.data)), nulls: a.nulls.clone()}
	for i, x := range a.data {
		out.data[i] = !x
	}
	return out
}

// IsNullVec computes IS [NOT] NULL for any vector type; the result
// carries no NULLs.
func IsNullVec(v Vector, neg bool) *BoolVector {
	n := v.Len()
	out := &BoolVector{data: make([]bool, n)}
	for i := 0; i < n; i++ {
		out.data[i] = v.IsNull(i) != neg
	}
	return out
}

// --- selection vectors -------------------------------------------------------

// TruthSel returns the positions where the vector is truthy under SQL
// WHERE semantics (non-NULL and true; numeric vectors count non-zero
// as true, mirroring value.AsBool). This is the BAT select operator:
// its output is a selection vector for Gather.
func TruthSel(v Vector) []int {
	var out []int
	switch t := v.(type) {
	case *BoolVector:
		hasNulls := t.nulls.bits != nil
		for i, b := range t.data {
			if b && (!hasNulls || !t.nulls.get(i)) {
				out = append(out, i)
			}
		}
	case *IntVector:
		hasNulls := t.nulls.bits != nil
		for i, x := range t.data {
			if x != 0 && (!hasNulls || !t.nulls.get(i)) {
				out = append(out, i)
			}
		}
	case *FloatVector:
		hasNulls := t.nulls.bits != nil
		for i, x := range t.data {
			if x != 0 && (!hasNulls || !t.nulls.get(i)) {
				out = append(out, i)
			}
		}
	default:
		n := v.Len()
		for i := 0; i < n; i++ {
			val := v.Get(i)
			if !val.Null && val.AsBool() {
				out = append(out, i)
			}
		}
	}
	return out
}

// AndSel refines a selection vector: it keeps the positions of sel at
// which v is truthy. Composing TruthSel results this way evaluates a
// conjunction without materializing intermediate boolean columns.
func AndSel(sel []int, v Vector) []int {
	out := sel[:0:len(sel)]
	for _, i := range sel {
		val := v.Get(i)
		if !val.Null && val.AsBool() {
			out = append(out, i)
		}
	}
	return out
}

// --- views, broadcast, concatenation ----------------------------------------

// ViewRange returns a read-only view of elements [lo, hi). When the
// range carries no NULLs the view shares the backing array (zero
// copy); otherwise it falls back to Slice. Views must not be mutated.
func ViewRange(v Vector, lo, hi int) Vector {
	if lo == 0 && hi == v.Len() {
		return v
	}
	switch t := v.(type) {
	case *IntVector:
		if !t.nulls.anyInRange(lo, hi) {
			return &IntVector{typ: t.typ, data: t.data[lo:hi:hi]}
		}
	case *FloatVector:
		if !t.nulls.anyInRange(lo, hi) {
			return &FloatVector{data: t.data[lo:hi:hi]}
		}
	case *BoolVector:
		if !t.nulls.anyInRange(lo, hi) {
			return &BoolVector{data: t.data[lo:hi:hi]}
		}
	case *StringVector:
		if !t.nulls.anyInRange(lo, hi) {
			return &StringVector{data: t.data[lo:hi:hi]}
		}
	case *AnyVector:
		return &AnyVector{typ: t.typ, data: t.data[lo:hi:hi]}
	}
	return v.Slice(lo, hi)
}

// anyInRange reports whether any position in [lo, hi) is marked. It
// tests whole words: the first and last word of the range are masked
// to the positions inside it, the words between compare against zero.
func (n *nullset) anyInRange(lo, hi int) bool {
	if max := len(n.bits) * 64; hi > max {
		hi = max
	}
	if lo >= hi {
		return false
	}
	w0, w1 := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if w0 == w1 {
		return n.bits[w0]&first&last != 0
	}
	if n.bits[w0]&first != 0 {
		return true
	}
	for _, w := range n.bits[w0+1 : w1] {
		if w != 0 {
			return true
		}
	}
	return n.bits[w1]&last != 0
}

// Broadcast materializes a constant as an n-element vector of type t
// with typed bulk fills (no per-element boxing).
func Broadcast(v value.Value, t value.Type, n int) Vector {
	switch t {
	case value.Int, value.Timestamp:
		out := &IntVector{typ: t, data: make([]int64, n)}
		if v.Null {
			out.nulls = allNulls(n)
		} else {
			x := v.AsInt()
			for i := range out.data {
				out.data[i] = x
			}
		}
		return out
	case value.Float:
		out := &FloatVector{data: make([]float64, n)}
		if v.Null {
			out.nulls = allNulls(n)
		} else {
			x := v.AsFloat()
			for i := range out.data {
				out.data[i] = x
			}
		}
		return out
	case value.Bool:
		out := &BoolVector{data: make([]bool, n)}
		if v.Null {
			out.nulls = allNulls(n)
		} else {
			x := v.AsBool()
			for i := range out.data {
				out.data[i] = x
			}
		}
		return out
	}
	out := New(t, n)
	for i := 0; i < n; i++ {
		out.Append(v)
	}
	return out
}

// allNulls builds a bitmap with exactly the first n positions marked
// (trailing bits stay clear so popcount needs no masking).
func allNulls(n int) nullset {
	if n == 0 {
		return nullset{}
	}
	words := (n + 63) / 64
	b := make([]uint64, words)
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		b[words-1] = (uint64(1) << uint(rem)) - 1
	}
	return nullset{bits: b}
}

// Grow reserves capacity for at least extra more elements in v, so a
// caller merging many pieces (the parallel chunk-scan collectors)
// reallocates once up front instead of geometrically inside Concat.
// Vector implementations without a reservable backing slice are left
// untouched.
func Grow(v Vector, extra int) Vector {
	switch d := v.(type) {
	case *IntVector:
		d.data = slices.Grow(d.data, extra)
	case *FloatVector:
		d.data = slices.Grow(d.data, extra)
	case *BoolVector:
		d.data = slices.Grow(d.data, extra)
	case *StringVector:
		d.data = slices.Grow(d.data, extra)
	case *AnyVector:
		d.data = slices.Grow(d.data, extra)
	}
	return v
}

// Concat appends src's elements to dst and returns dst. Same-type
// vectors concatenate with bulk slice appends; mixed representations
// fall back to elementwise copy.
func Concat(dst, src Vector) Vector {
	base := dst.Len()
	switch d := dst.(type) {
	case *IntVector:
		if s, ok := src.(*IntVector); ok && s.typ == d.typ {
			d.data = append(d.data, s.data...)
			appendNulls(&d.nulls, &s.nulls, base, len(s.data))
			return d
		}
	case *FloatVector:
		if s, ok := src.(*FloatVector); ok {
			d.data = append(d.data, s.data...)
			appendNulls(&d.nulls, &s.nulls, base, len(s.data))
			return d
		}
	case *BoolVector:
		if s, ok := src.(*BoolVector); ok {
			d.data = append(d.data, s.data...)
			appendNulls(&d.nulls, &s.nulls, base, len(s.data))
			return d
		}
	case *StringVector:
		if s, ok := src.(*StringVector); ok {
			d.data = append(d.data, s.data...)
			appendNulls(&d.nulls, &s.nulls, base, len(s.data))
			return d
		}
	case *AnyVector:
		if s, ok := src.(*AnyVector); ok {
			d.data = append(d.data, s.data...)
			return d
		}
	}
	n := src.Len()
	for i := 0; i < n; i++ {
		dst.Append(src.Get(i))
	}
	return dst
}

func appendNulls(dst, src *nullset, base, n int) {
	if len(src.bits) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if src.get(i) {
			dst.set(base + i)
		}
	}
}

// AppendInt64 appends a non-NULL int64 without boxing — the fast path
// for building dimension columns during batch assembly.
func (v *IntVector) AppendInt64(x int64) { v.data = append(v.data, x) }
