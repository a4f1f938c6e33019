package bat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/value"
)

// buildTable extracts the keys of cols and builds a single-partition
// table over all of them.
func buildTable(cols []Vector, kinds []KeyKind, nullKeys bool) (*RowKeys, *KeyTable) {
	keys := NewRowKeys(cols, kinds, nullKeys)
	keys.Fill(0, keys.Len())
	t := NewKeyTable(keys, 1)
	t.Build(0, 0, keys.Len())
	return keys, t
}

// matches lists the built rows equal to probe row i, in chain order.
func matches(t *KeyTable, probe *RowKeys, i int) []int {
	var out []int
	for r := t.Lookup(probe, i); r >= 0; r = t.Next(r) {
		out = append(out, int(r))
	}
	return out
}

func intsWithNulls(vals []int64, nulls ...int) *IntVector {
	v := NewIntVector(vals)
	for _, i := range nulls {
		v.Set(i, value.NewNull(value.Int))
	}
	return v
}

// Equal keys chain in ascending build-row order — the join's (left asc,
// right asc) output contract rests on it — also when every key lands in
// one bucket.
func TestKeyTableChainsKeepBuildRowOrder(t *testing.T) {
	build := []Vector{NewIntVector([]int64{7, 3, 7, 9, 3, 7, 11})}
	probe := []Vector{NewIntVector([]int64{7, 3, 9, 4})}
	kinds := []KeyKind{KeyBits}
	want := [][]int{{0, 2, 5}, {1, 4}, {3}, nil}
	for _, collide := range []bool{false, true} {
		bkeys := NewRowKeys(build, kinds, false)
		bkeys.Fill(0, bkeys.Len())
		tab := NewKeyTable(bkeys, 1)
		if collide {
			tab.mask = 0 // a constant hash: one bucket, every key on one chain
		}
		tab.Build(0, 0, 3)
		tab.Build(0, 3, bkeys.Len())
		pkeys := NewRowKeys(probe, kinds, false)
		pkeys.Fill(0, pkeys.Len())
		for i, w := range want {
			if got := matches(tab, pkeys, i); !slices.Equal(got, w) {
				t.Errorf("collide=%v probe row %d: got %v, want %v", collide, i, got, w)
			}
		}
		if tab.Distinct() != 4 {
			t.Errorf("collide=%v: %d distinct keys, want 4", collide, tab.Distinct())
		}
		for i, first := range []bool{true, true, false, true, false, false, true} {
			if tab.First(i) != first {
				t.Errorf("collide=%v: First(%d) = %v", collide, i, !first)
			}
		}
	}
}

// Under `=` a NULL key column excludes the row on either side; as a
// grouping key NULL is a value of its own, apart from 0.
func TestKeyTableNulls(t *testing.T) {
	build := []Vector{intsWithNulls([]int64{1, 0, 2, 0}, 1), NewIntVector([]int64{5, 5, 5, 5})}
	probe := []Vector{intsWithNulls([]int64{0, 0, 1}, 0), NewIntVector([]int64{5, 5, 5})}
	kinds := []KeyKind{KeyBits, KeyBits}
	_, tab := buildTable(build, kinds, false)
	pkeys := NewRowKeys(probe, kinds, false)
	pkeys.Fill(0, 3)
	for i, w := range [][]int{nil, {3}, {0}} {
		if got := matches(tab, pkeys, i); !slices.Equal(got, w) {
			t.Errorf("probe row %d: got %v, want %v", i, got, w)
		}
	}
	if tab.Distinct() != 3 {
		t.Errorf("%d distinct keys built, want 3 (the NULL row is not built)", tab.Distinct())
	}
	gkeys, gtab := buildTable(build, kinds, true)
	if gtab.Distinct() != 4 || !gtab.First(1) || !gtab.First(3) {
		t.Errorf("grouping: NULL and 0 must be two keys (distinct=%d)", gtab.Distinct())
	}
	if got := matches(gtab, gkeys, 1); !slices.Equal(got, []int{1}) {
		t.Errorf("grouping: NULL row matches %v, want itself only", got)
	}
}

// Mixed Int/Float pairs hash to exactly the pairs value.Compare calls
// equal: 1 = 1.0, and 2^53+1 equals the float it rounds to.
func TestJoinKeyKindNumericFollowsCompare(t *testing.T) {
	big := int64(1)<<53 + 1
	ints := NewIntVector([]int64{1, big, 0, -3, 7})
	floats := NewFloatVector([]float64{1.0, float64(big), math.Copysign(0, -1), -3.5, 2})
	kind, ok := JoinKeyKind(ints, floats)
	if !ok || kind != KeyNumeric {
		t.Fatalf("JoinKeyKind(Int, Float) = %v, %v", kind, ok)
	}
	kinds := []KeyKind{kind}
	_, tab := buildTable([]Vector{ints}, kinds, false)
	pkeys := NewRowKeys([]Vector{floats}, kinds, false)
	pkeys.Fill(0, pkeys.Len())
	for j := 0; j < floats.Len(); j++ {
		var want []int
		for i := 0; i < ints.Len(); i++ {
			if value.Equal(ints.Get(i), floats.Get(j)) {
				want = append(want, i)
			}
		}
		if got := matches(tab, pkeys, j); !slices.Equal(got, want) {
			t.Errorf("float %v: matched ints %v, value.Compare says %v", floats.Get(j), got, want)
		}
	}
	if kind, ok := JoinKeyKind(NewIntVector(nil), NewIntVector(nil)); !ok || kind != KeyBits {
		t.Errorf("JoinKeyKind(Int, Int) = %v, %v", kind, ok)
	}
	if kind, ok := JoinKeyKind(NewIntVector(nil), NewTimestampVector(nil)); !ok || kind != KeyNumeric {
		t.Errorf("JoinKeyKind(Int, Timestamp) = %v, %v", kind, ok)
	}
	if _, ok := JoinKeyKind(New(value.String, 0), NewIntVector(nil)); ok {
		t.Error("VARCHAR = INTEGER never holds and must not hash")
	}
	if _, ok := JoinKeyKind(New(value.Unknown, 0), New(value.Unknown, 0)); ok {
		t.Error("opaque columns must not hash")
	}
}

// -0.0 and 0.0 are one key under `=` and two as a grouping key; NaN is
// one grouping key and cannot be an `=` key at all.
func TestKeyTableFloatZerosAndNaN(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := NewFloatVector([]float64{0, negZero, math.NaN(), -math.NaN(), 1})
	_, grp := buildTable([]Vector{col}, []KeyKind{KeyBits}, true)
	if grp.Distinct() != 4 || !grp.First(1) || grp.First(3) {
		t.Errorf("grouping: want keys {0, -0, NaN, 1}, got %d distinct", grp.Distinct())
	}
	if _, ok := JoinKeyKind(col, col); ok {
		t.Error("a Float column holding NaN must not hash for `=`")
	}
	null := NewFloatVector([]float64{math.NaN(), 2})
	null.Set(0, value.NewNull(value.Float))
	if _, ok := JoinKeyKind(null, null); !ok {
		t.Error("a NULL is not a NaN")
	}
	zeros := NewFloatVector([]float64{0, negZero, 3})
	keys, eq := buildTable([]Vector{zeros}, []KeyKind{KeyNumeric}, false)
	if got := matches(eq, keys, 1); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("`=`: -0.0 matched rows %v, want [0 1]", got)
	}
}

// A composite key with a String column is encoded: column boundaries
// cannot alias, whatever bytes the strings hold.
func TestKeyTableEncodedKeysDoNotAlias(t *testing.T) {
	a := New(value.String, 0)
	b := New(value.String, 0)
	for _, p := range [][2]string{{"x\x00", "y"}, {"x", "\x00y"}, {"x\x00", "y"}, {"", "x\x00y"}} {
		a.Append(value.NewString(p[0]))
		b.Append(value.NewString(p[1]))
	}
	keys, tab := buildTable([]Vector{a, b}, []KeyKind{KeyEncoded, KeyEncoded}, false)
	if keys.Width() != 0 {
		t.Fatalf("string keys must be encoded, width = %d", keys.Width())
	}
	if tab.Distinct() != 3 {
		t.Errorf("%d distinct keys, want 3", tab.Distinct())
	}
	if got := matches(tab, keys, 2); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("row 2 matched %v, want [0 2]", got)
	}
}

// Probing agrees with a map[string] model of grouping keys on random
// columns of every typed kind, built across partitions and row blocks.
func TestKeyTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2}
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(300)
		iv, fv, bv, sv := New(value.Int, n), New(value.Float, n), New(value.Bool, n), New(value.String, n)
		for i := 0; i < n; i++ {
			iv.Append(value.NewInt(int64(rng.Intn(4))))
			fv.Append(value.NewFloat(floats[rng.Intn(len(floats))]))
			bv.Append(value.NewBool(rng.Intn(2) == 0))
			sv.Append(value.NewString([]string{"", "NULL", "a"}[rng.Intn(3)]))
			for _, v := range []Vector{iv, fv, bv, sv} {
				if rng.Intn(6) == 0 {
					v.Set(i, value.NewNull(v.Type()))
				}
			}
		}
		for _, cols := range [][]Vector{{iv}, {fv}, {iv, fv, bv}, {sv}, {iv, sv, fv}} {
			keys := GroupKeys(cols)
			parts := 1 << rng.Intn(3)
			tab := NewKeyTable(keys, parts)
			for lo := 0; lo < n; lo += 64 {
				keys.Fill(lo, min(lo+64, n))
			}
			for p := 0; p < parts; p++ {
				for lo := 0; lo < n; lo += 50 {
					tab.Build(p, lo, min(lo+50, n))
				}
			}
			model := map[string][]int{}
			for i := 0; i < n; i++ {
				k := ""
				for _, c := range cols {
					k += fmt.Sprintf("%d:%q|", c.Type(), string(AppendKey(nil, c.Get(i))))
				}
				model[k] = append(model[k], i)
			}
			if tab.Distinct() != len(model) {
				t.Fatalf("round %d: %d distinct keys, model has %d", round, tab.Distinct(), len(model))
			}
			for _, rows := range model {
				for _, i := range rows {
					if got := matches(tab, keys, i); !slices.Equal(got, rows) {
						t.Fatalf("round %d row %d: matched %v, model %v", round, i, got, rows)
					}
				}
			}
		}
	}
}
