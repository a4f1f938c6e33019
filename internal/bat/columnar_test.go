package bat

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/value"
)

// TestAnyInRangeWordBoundaries checks the word-wise range test against
// the one-bit-at-a-time definition, over ranges that start, end and
// straddle 64-bit word boundaries, including past the bitmap's end.
func TestAnyInRangeWordBoundaries(t *testing.T) {
	for _, marks := range [][]int{{}, {0}, {63}, {64}, {65}, {127, 128}, {190}, {5, 70, 191}} {
		var n nullset
		for _, m := range marks {
			n.set(m)
		}
		for _, r := range [][2]int{
			{0, 0}, {0, 1}, {0, 63}, {0, 64}, {0, 65}, {1, 63}, {63, 64}, {63, 65}, {64, 64}, {64, 65},
			{64, 128}, {65, 127}, {1, 191}, {66, 190}, {66, 191}, {127, 129}, {128, 192}, {129, 400}, {191, 192}, {192, 500},
		} {
			want := false
			for i := r[0]; i < r[1]; i++ {
				want = want || n.get(i)
			}
			if got := n.anyInRange(r[0], r[1]); got != want {
				t.Errorf("marks %v range [%d,%d): got %v, want %v", marks, r[0], r[1], got, want)
			}
		}
	}
}

// TestVectorsAdoptValidity: a storage-backed vector reads NULL exactly
// where the validity bit is clear, for slices that start and end inside
// a bitmap word and run past the bitmap's end; no bitmap is kept for a
// range without NULLs, and the data is shared, not copied.
func TestVectorsAdoptValidity(t *testing.T) {
	const n = 200
	data := make([]float64, n)
	valid := make([]uint64, 3) // positions 192.. have no word: absent
	for i := range data {
		data[i] = float64(i)
		if i < 192 && i%7 != 3 && (i < 100 || i >= 140) {
			valid[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for _, r := range [][2]int{{0, 200}, {0, 64}, {1, 63}, {60, 70}, {63, 129}, {64, 128}, {100, 140}, {101, 102}, {130, 200}, {192, 200}} {
		v := NewFloatVectorValid(data[r[0]:r[1]], valid, r[0])
		for i := 0; i < v.Len(); i++ {
			p := r[0] + i
			wantNull := p>>6 >= len(valid) || valid[p>>6]&(1<<(uint(p)&63)) == 0
			if v.IsNull(i) != wantNull || (!wantNull && v.Get(i).F != float64(p)) {
				t.Fatalf("range %v element %d: null=%v value=%v, want null=%v value=%d", r, i, v.IsNull(i), v.Get(i), wantNull, p)
			}
		}
		if got, want := NullCount(v), v.Len()-countValid(valid, r[0], r[1]); got != want {
			t.Errorf("range %v: NullCount %d, want %d", r, got, want)
		}
		if &v.Floats()[0] != &data[r[0]] {
			t.Errorf("range %v: data was copied", r)
		}
	}
	for i := range valid {
		valid[i] = ^uint64(0)
	}
	if v := NewIntVectorValid(value.Timestamp, make([]int64, 150), valid, 17); v.nulls.bits != nil || v.Type() != value.Timestamp {
		t.Errorf("all-present range: bitmap %v type %s, want no bitmap and TIMESTAMP", v.nulls.bits, v.Type())
	}
	if v := NewFloatVectorValid(data[:10], nil, 0); NullCount(v) != 0 {
		t.Error("nil validity must mean no NULLs")
	}
}

func countValid(valid []uint64, lo, hi int) int {
	n := 0
	for p := lo; p < hi; p++ {
		if p>>6 < len(valid) && valid[p>>6]&(1<<(uint(p)&63)) != 0 {
			n++
		}
	}
	return n
}

// TestFoldGroupedMatchesAdd: the typed folds leave every aggregate in
// the state one Add per row would, for every function, with NULLs, NaN,
// selections and group ids, and continue states other vectors fed.
func TestFoldGroupedMatchesAdd(t *testing.T) {
	fv := floatVec(3.5, nil, -2.0, math.NaN(), 7.25, 0.0, nil, 1e300, -0.0, 4.0)
	iv := intVec(4, -7, nil, 0, 12, nil, 3, 3, -1, 9)
	tv := &IntVector{typ: value.Timestamp, data: []int64{5, 1, 9, 2, 8, 3, 7, 4, 6, 0}}
	sv := &StringVector{data: []string{"b", "a", "c", "a", "z", "", "q", "b", "m", "n"}}
	gids := []int32{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	sels := [][]int{nil, {0, 2, 3, 4, 9}, {9, 8, 1}, {}}
	for _, fn := range []string{"SUM", "COUNT", "AVG", "MIN", "MAX"} {
		for _, v := range []Vector{fv, iv, tv, sv} {
			for _, sel := range sels {
				n := v.Len()
				if sel != nil {
					n = len(sel)
				}
				for _, grouped := range []bool{false, true} {
					want := []*AggState{NewAggState(fn), NewAggState(fn), NewAggState(fn)}
					got := []AggState{*NewAggState(fn), *NewAggState(fn), *NewAggState(fn)}
					g := gids[:n]
					if !grouped {
						g = nil
					}
					// Two rounds: the second continues warm states.
					for round := 0; round < 2; round++ {
						for k := 0; k < n; k++ {
							i, s := k, 0
							if sel != nil {
								i = sel[k]
							}
							if grouped {
								s = int(g[k])
							}
							want[s].Add(v.Get(i))
						}
						FoldGrouped(got, g, v, sel, n)
					}
					for s := range got {
						w, r := want[s].Result(), got[s].Result()
						if fmt.Sprint(w.Typ, w) != fmt.Sprint(r.Typ, r) {
							t.Errorf("%s over %s sel=%v grouped=%v state %d: got %s %v, want %s %v", fn, v.Type(), sel, grouped, s, r.Typ, r, w.Typ, w)
						}
					}
				}
			}
		}
	}
	// A state that already holds another type keeps value.Compare order.
	mixed, ref := []AggState{*NewAggState("MAX")}, NewAggState("MAX")
	mixed[0].Add(value.NewInt(5))
	ref.Add(value.NewInt(5))
	FoldGrouped(mixed, nil, fv, nil, fv.Len())
	for i := 0; i < fv.Len(); i++ {
		ref.Add(fv.Get(i))
	}
	if got, want := mixed[0].Result(), ref.Result(); got != want {
		t.Errorf("mixed-type MAX: got %v, want %v", got, want)
	}
}
