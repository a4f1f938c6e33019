package bat

import (
	"encoding/binary"
	"math"

	"repro/internal/value"
)

// This file is the engine's one row-key primitive: the typed key
// material of the rows of one or more columns (RowKeys) and a chained
// hash table over it (KeyTable). The hash join, SELECT DISTINCT / UNION
// and the anchors and sparse windows of structural grouping all key
// rows through it. Int, Timestamp, Float and Bool columns are hashed
// and compared as raw 64-bit words — no string is built and no value is
// boxed per row; only String and opaque columns fall back to the
// type-tagged AppendKey bytes.

// AppendKey appends the type-tagged encoding of one key value: NULL is
// its own tag, so it can never collide with the string 'NULL';
// integers, timestamps and booleans are fixed-width after their type
// tag; floats are their bits, with every NaN folded to one pattern
// while -0.0 and 0.0 stay apart (exactly the groups their printed forms
// make); strings — and opaque values, by their printed form — are
// length-prefixed, so a composite key cannot alias across columns.
func AppendKey(buf []byte, v value.Value) []byte {
	if v.Null {
		return append(buf, 0)
	}
	switch v.Typ {
	case value.Int, value.Timestamp:
		return binary.LittleEndian.AppendUint64(append(buf, byte(v.Typ)), uint64(v.I))
	case value.Float:
		return binary.LittleEndian.AppendUint64(append(buf, byte(v.Typ)), FloatKeyBits(v.F))
	case value.Bool:
		if v.B {
			return append(buf, byte(v.Typ), 1)
		}
		return append(buf, byte(v.Typ), 0)
	}
	s := v.String()
	return append(binary.AppendUvarint(append(buf, byte(v.Typ)), uint64(len(s))), s...)
}

// FloatKeyBits is the identity of a float as a key: its bits, every NaN
// folded to one pattern.
func FloatKeyBits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// KeyKind is how one key column contributes to a row key.
type KeyKind uint8

const (
	// KeyBits keys Int, Timestamp and Bool columns by their value and
	// Float columns by identity (FloatKeyBits): what grouping and
	// DISTINCT mean, and what `=` means between two columns of one
	// integral type.
	KeyBits KeyKind = iota
	// KeyNumeric keys a numeric column by its value as a float64 — the
	// conversion value.Compare applies when `=` meets a Float operand or
	// two different numeric types — with -0.0 and 0.0 one key. NaN,
	// which `=` holds equal to every number, cannot be hashed;
	// JoinKeyKind rejects columns that hold one.
	KeyNumeric
	// KeyEncoded keys String and opaque columns by their AppendKey bytes.
	KeyEncoded
)

// GroupKeyKind is the kind a column has as a grouping / DISTINCT key.
func GroupKeyKind(v Vector) KeyKind {
	switch v.(type) {
	case *IntVector, *FloatVector, *BoolVector:
		return KeyBits
	}
	return KeyEncoded
}

// JoinKeyKind is the kind under which hashing a pair of columns matches
// exactly the row pairs `a = b` holds for. ok is false when no kind
// does — the types never compare equal (VARCHAR against INTEGER), a
// column is opaque, or a numeric column holds a NaN — and the caller
// must evaluate the predicate itself.
func JoinKeyKind(a, b Vector) (kind KeyKind, ok bool) {
	switch x := a.(type) {
	case *IntVector:
		switch y := b.(type) {
		case *IntVector:
			if x.typ == y.typ {
				return KeyBits, true
			}
			return KeyNumeric, true
		case *FloatVector:
			return KeyNumeric, !hasNaN(y)
		}
	case *FloatVector:
		switch y := b.(type) {
		case *IntVector:
			return KeyNumeric, !hasNaN(x)
		case *FloatVector:
			return KeyNumeric, !hasNaN(x) && !hasNaN(y)
		}
	case *BoolVector:
		_, ok = b.(*BoolVector)
		return KeyBits, ok
	case *StringVector:
		_, ok = b.(*StringVector)
		return KeyEncoded, ok
	}
	return 0, false
}

func hasNaN(v *FloatVector) bool {
	for i, f := range v.data {
		if f != f && !v.nulls.get(i) {
			return true
		}
	}
	return false
}

// RowKeys is the key material of the rows of a column set: per row
// either a fixed number of 64-bit words or, when a column is
// KeyEncoded, the encoded bytes and their hash (words hash on demand).
// Two RowKeys built with the same kinds are comparable with each other,
// whatever the columns' own types.
type RowKeys struct {
	cols  []Vector
	kinds []KeyKind
	// nullKeys makes NULL a key value of its own (grouping); otherwise a
	// row with a NULL key column equals nothing, as under `=`, and is
	// marked in skip (allocated only over columns that hold NULLs).
	nullKeys bool
	// width is the number of words per key; 0 when keys are encoded.
	// With nullKeys over columns that hold NULLs the last word is the
	// row's NULL mask.
	width    int
	nullWord bool
	n        int
	words    []uint64
	enc      []string
	hash     []uint64 // of enc
	skip     []bool
}

// NewRowKeys allocates the keys of every row of cols; Fill computes
// them, range by range.
func NewRowKeys(cols []Vector, kinds []KeyKind, nullKeys bool) *RowKeys {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	k := &RowKeys{cols: cols, kinds: kinds, nullKeys: nullKeys, width: len(cols), n: n}
	nulls := false
	for c, kind := range kinds {
		if kind == KeyEncoded {
			k.width = 0
		}
		nulls = nulls || NullCount(cols[c]) > 0
	}
	if nulls && !nullKeys {
		k.skip = make([]bool, n)
	}
	k.nullWord = nulls && nullKeys && k.width > 0 && len(cols) <= 64
	if nulls && nullKeys && !k.nullWord {
		k.width = 0
	}
	if k.width == 0 {
		k.enc, k.hash = make([]string, n), make([]uint64, n)
		return k
	}
	if k.nullWord {
		k.width++
	}
	k.words = make([]uint64, n*k.width)
	return k
}

// GroupKeys is NewRowKeys for grouping / DISTINCT over cols.
func GroupKeys(cols []Vector) *RowKeys {
	kinds := make([]KeyKind, len(cols))
	for c, v := range cols {
		kinds[c] = GroupKeyKind(v)
	}
	return NewRowKeys(cols, kinds, true)
}

// Len returns the number of rows.
func (k *RowKeys) Len() int { return k.n }

// Width returns the number of words per key, 0 for encoded keys.
func (k *RowKeys) Width() int { return k.width }

// Skipped reports whether row i has a NULL key column and so matches
// nothing.
func (k *RowKeys) Skipped(i int) bool { return k.skip != nil && k.skip[i] }

// Bytes estimates the heap footprint of the key material.
func (k *RowKeys) Bytes() int64 {
	n := int64(len(k.words)+len(k.hash))*8 + int64(len(k.skip)) + int64(len(k.enc))*16
	for _, s := range k.enc {
		n += int64(len(s))
	}
	return n
}

// numericBits is the KeyNumeric word of f (never NaN).
func numericBits(f float64) uint64 {
	if f == 0 {
		return 0 // -0.0 = 0.0
	}
	return math.Float64bits(f)
}

// word returns column c's key word of row i; the row is not NULL there.
func (k *RowKeys) word(c, i int) uint64 {
	switch v := k.cols[c].(type) {
	case *IntVector:
		if k.kinds[c] == KeyNumeric {
			return numericBits(float64(v.data[i]))
		}
		return uint64(v.data[i])
	case *FloatVector:
		if k.kinds[c] == KeyNumeric {
			return numericBits(v.data[i])
		}
		return FloatKeyBits(v.data[i])
	case *BoolVector:
		if v.data[i] {
			return 1
		}
	}
	return 0
}

// Fill computes the keys of rows [lo, hi). Disjoint ranges may be
// filled concurrently.
func (k *RowKeys) Fill(lo, hi int) {
	if k.width == 0 {
		k.fillEncoded(lo, hi)
		return
	}
	for c := range k.cols {
		k.fillWords(c, lo, hi)
	}
}

// hashOf returns the hash of row i's key.
func (k *RowKeys) hashOf(i int) uint64 {
	if k.width == 0 {
		return k.hash[i]
	}
	return hashWords(k.words[i*k.width : (i+1)*k.width])
}

// fillWords writes column c's word of rows [lo, hi) in a typed loop and
// records NULLs: in the row's NULL mask, or by marking the row skipped.
func (k *RowKeys) fillWords(c, lo, hi int) {
	w := k.width
	out := k.words[c:]
	var nulls nullset
	switch v := k.cols[c].(type) {
	case *IntVector:
		nulls = v.nulls
		if k.kinds[c] == KeyNumeric {
			for i := lo; i < hi; i++ {
				out[i*w] = numericBits(float64(v.data[i]))
			}
		} else {
			for i := lo; i < hi; i++ {
				out[i*w] = uint64(v.data[i])
			}
		}
	case *FloatVector:
		nulls = v.nulls
		if k.kinds[c] == KeyNumeric {
			for i := lo; i < hi; i++ {
				out[i*w] = numericBits(v.data[i])
			}
		} else {
			for i := lo; i < hi; i++ {
				out[i*w] = FloatKeyBits(v.data[i])
			}
		}
	case *BoolVector:
		nulls = v.nulls
		for i := lo; i < hi; i++ {
			if v.data[i] {
				out[i*w] = 1
			}
		}
	}
	if !nulls.anyInRange(lo, hi) {
		return
	}
	for i := lo; i < hi; i++ {
		if !nulls.get(i) {
			continue
		}
		out[i*w] = 0
		if k.nullKeys {
			k.words[i*w+w-1] |= 1 << uint(c)
		} else {
			k.skip[i] = true
		}
	}
}

// fillEncoded builds the byte keys of rows [lo, hi): per column a NULL
// tag, a tagged word, or the AppendKey bytes — each self-delimiting, so
// the concatenation is unambiguous.
func (k *RowKeys) fillEncoded(lo, hi int) {
	var buf []byte
rows:
	for i := lo; i < hi; i++ {
		buf = buf[:0]
		for c, v := range k.cols {
			switch {
			case v.IsNull(i):
				if !k.nullKeys {
					k.skip[i] = true
					continue rows
				}
				buf = append(buf, 0)
			case k.kinds[c] == KeyEncoded:
				buf = AppendKey(buf, v.Get(i))
			default:
				buf = binary.LittleEndian.AppendUint64(append(buf, 1), k.word(c, i))
			}
		}
		k.enc[i] = string(buf)
		k.hash[i] = hashBytes(k.enc[i])
	}
}

// hashWords mixes key words into a hash whose low bits are as good as
// its high ones (the table takes buckets and partitions from the low
// end): a multiply-xorshift round per word.
func hashWords(ws []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range ws {
		h = (h ^ w) * 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	h *= 0x94D049BB133111EB
	return h ^ h>>32
}

// hashBytes is FNV-1a with a final fold of the high bits into the low.
func hashBytes(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h ^ h>>32
}

// KeyTable is a chained hash table over the rows of a RowKeys. Rows
// with equal keys form one chain through next, in ascending row order,
// headed by the key's first row; the first rows of the keys sharing a
// bucket chain through nextKey. No per-key slice or map entry is
// allocated. The buckets are split into partitions by the hash's low
// bits, so partitions build independently of each other.
type KeyTable struct {
	keys        *RowKeys
	parts, mask uint64
	heads       []int32 // bucket → first row of its first key, -1
	nextKey     []int32 // a key's first row → first row of the bucket's next key
	next        []int32 // row → next row with the same key
	tail        []int32 // a key's first row → its last row so far; -1 on any other row
	distinct    []int   // per partition
}

// NewKeyTable allocates an empty table over keys with the given number
// of partitions (a power of two).
func NewKeyTable(keys *RowKeys, parts int) *KeyTable {
	n := keys.Len()
	buckets := max(16, parts)
	for buckets < n {
		buckets <<= 1
	}
	t := &KeyTable{keys: keys, parts: uint64(parts), mask: uint64(buckets - 1),
		heads: make([]int32, buckets), nextKey: make([]int32, n), next: make([]int32, n), tail: make([]int32, n),
		distinct: make([]int, parts)}
	for i := range t.heads {
		t.heads[i] = -1
	}
	for i := range t.tail {
		t.tail[i] = -1
	}
	return t
}

// Bytes estimates the heap footprint of the table proper (not its keys).
func (t *KeyTable) Bytes() int64 { return int64(len(t.heads)+3*len(t.next)) * 4 }

// Build inserts the rows of [lo, hi) that belong to partition part.
// Rows of one partition must be inserted in ascending order — chains
// then list equal keys in row order, which the join's output order
// rests on; distinct partitions may build concurrently.
func (t *KeyTable) Build(part, lo, hi int) {
	k := t.keys
	for i := lo; i < hi; i++ {
		h := k.hashOf(i)
		if h&(t.parts-1) != uint64(part) || k.Skipped(i) {
			continue
		}
		if first := t.find(k, i, h); first >= 0 {
			t.next[t.tail[first]] = int32(i)
			t.tail[first] = int32(i)
			t.next[i] = -1
			continue
		}
		b := h & t.mask
		t.nextKey[i] = t.heads[b]
		t.heads[b] = int32(i)
		t.tail[i] = int32(i)
		t.next[i] = -1
		t.distinct[part]++
	}
}

// find returns the first row of the chain whose key equals row i of
// probe (of hash h), or -1.
func (t *KeyTable) find(probe *RowKeys, i int, h uint64) int32 {
	k := t.keys
	if k.width == 0 {
		for r := t.heads[h&t.mask]; r >= 0; r = t.nextKey[r] {
			if k.hash[r] == h && k.enc[r] == probe.enc[i] {
				return r
			}
		}
		return -1
	}
	return t.findWords(probe.words[i*k.width:(i+1)*k.width], h)
}

func (t *KeyTable) findWords(ws []uint64, h uint64) int32 {
	k, w := t.keys, len(ws)
	for r := t.heads[h&t.mask]; r >= 0; r = t.nextKey[r] {
		if wordsEqual(k.words[int(r)*w:int(r)*w+w], ws) {
			return r
		}
	}
	return -1
}

func wordsEqual(a, b []uint64) bool {
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// Lookup returns the first (lowest) built row whose key equals row i of
// probe — keys extracted with the table's kinds — or -1; Next continues
// through the equal rows in ascending order.
func (t *KeyTable) Lookup(probe *RowKeys, i int) int32 {
	if probe.Skipped(i) {
		return -1
	}
	return t.find(probe, i, probe.hashOf(i))
}

// LookupWords is Lookup for a key given as its words (a word-keyed
// table only).
func (t *KeyTable) LookupWords(ws []uint64) int32 { return t.findWords(ws, hashWords(ws)) }

// Next returns the built row after row with the same key, or -1.
func (t *KeyTable) Next(row int32) int32 { return t.next[row] }

// First reports whether built row i is the first row of its key.
func (t *KeyTable) First(i int) bool { return t.tail[i] >= 0 }

// Distinct returns the number of distinct keys built so far.
func (t *KeyTable) Distinct() int {
	n := 0
	for _, d := range t.distinct {
		n += d
	}
	return n
}
