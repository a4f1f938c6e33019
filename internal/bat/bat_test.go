package bat

import (
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestVectorTypesRoundTrip(t *testing.T) {
	cases := []struct {
		typ value.Type
		v   value.Value
	}{
		{value.Int, value.NewInt(-5)},
		{value.Float, value.NewFloat(3.25)},
		{value.String, value.NewString("hello")},
		{value.Bool, value.NewBool(true)},
		{value.Timestamp, value.NewTimestamp(1234567)},
	}
	for _, c := range cases {
		v := New(c.typ, 0)
		v.Append(c.v)
		v.Append(value.NewNull(c.typ))
		if got := v.Get(0); !value.Equal(got, c.v) {
			t.Errorf("%s: Get(0) = %v, want %v", c.typ, got, c.v)
		}
		if !v.IsNull(1) || !v.Get(1).Null {
			t.Errorf("%s: NULL round trip failed", c.typ)
		}
		if v.Len() != 2 {
			t.Errorf("%s: Len = %d", c.typ, v.Len())
		}
	}
}

func TestVectorSetOverwrite(t *testing.T) {
	v := New(value.Float, 0)
	v.Append(value.NewFloat(1))
	v.Set(0, value.NewNull(value.Float))
	if !v.IsNull(0) {
		t.Fatal("Set NULL failed")
	}
	v.Set(0, value.NewFloat(2))
	if v.IsNull(0) || v.Get(0).F != 2 {
		t.Fatal("Set over NULL failed")
	}
}

func TestSliceAndGather(t *testing.T) {
	v := New(value.Int, 0)
	for i := int64(0); i < 10; i++ {
		if i == 5 {
			v.Append(value.NewNull(value.Int))
			continue
		}
		v.Append(value.NewInt(i))
	}
	s := v.Slice(4, 7)
	if s.Len() != 3 || s.Get(0).I != 4 || !s.IsNull(1) || s.Get(2).I != 6 {
		t.Fatalf("slice wrong: %v %v %v", s.Get(0), s.Get(1), s.Get(2))
	}
	g := v.Gather([]int{9, 5, 0})
	if g.Get(0).I != 9 || !g.IsNull(1) || g.Get(2).I != 0 {
		t.Fatalf("gather wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := New(value.Int, 0)
	v.Append(value.NewInt(1))
	c := v.Clone()
	v.Set(0, value.NewInt(99))
	if c.Get(0).I != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestBATVirtualHead(t *testing.T) {
	b := NewBAT(NewIntVector([]int64{10, 20, 30}))
	if !b.IsDenseHead() {
		t.Fatal("head should be virtual")
	}
	if b.OID(2) != 2 {
		t.Fatalf("OID(2) = %d", b.OID(2))
	}
	b.HeadBase = 100
	if b.OID(2) != 102 {
		t.Fatalf("OID with base = %d", b.OID(2))
	}
	b.Head = []int64{7, 8, 9}
	if b.IsDenseHead() || b.OID(1) != 8 {
		t.Fatal("materialized head wrong")
	}
}

func TestBATSelect(t *testing.T) {
	b := NewBAT(NewFloatVector([]float64{1, 5, 3, 8, 2}))
	pos := b.SelectRangeFloat(2, 5)
	if len(pos) != 3 {
		t.Fatalf("range select found %d, want 3 (5,3,2)", len(pos))
	}
	pos = b.Select(func(v value.Value) bool { return v.AsFloat() > 4 })
	if len(pos) != 2 {
		t.Fatalf("predicate select found %d, want 2", len(pos))
	}
}

func TestBATSortPerm(t *testing.T) {
	b := NewBAT(NewIntVector([]int64{3, 1, 2}))
	b.Tail.Append(value.NewNull(value.Int))
	perm := b.SortPerm()
	// NULL first, then 1, 2, 3.
	if !b.Tail.IsNull(perm[0]) || b.Tail.Get(perm[1]).I != 1 || b.Tail.Get(perm[3]).I != 3 {
		t.Fatalf("sort perm wrong: %v", perm)
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	v := New(value.Float, 0)
	v.Append(value.NewFloat(1))
	v.Append(value.NewNull(value.Float))
	v.Append(value.NewFloat(3))
	b := NewBAT(v)
	check := func(fn string, want float64) {
		t.Helper()
		got, err := b.Aggregate(fn)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsFloat() != want {
			t.Errorf("%s = %v, want %v", fn, got.AsFloat(), want)
		}
	}
	check("SUM", 4)
	check("AVG", 2)
	check("MIN", 1)
	check("MAX", 3)
	check("COUNT", 2)
	if _, err := b.Aggregate("MEDIAN"); err == nil {
		t.Error("unknown aggregate should error")
	}
}

func TestAggEmptyInput(t *testing.T) {
	for _, fn := range []string{"SUM", "AVG", "MIN", "MAX"} {
		a := NewAggState(fn)
		if !a.Result().Null {
			t.Errorf("%s over empty input should be NULL", fn)
		}
	}
	c := NewAggState("COUNT")
	if c.Result().I != 0 {
		t.Error("COUNT over empty input should be 0")
	}
}

func TestAggSumIntStaysInt(t *testing.T) {
	a := NewAggState("SUM")
	a.Add(value.NewInt(2))
	a.Add(value.NewInt(3))
	if r := a.Result(); r.Typ != value.Int || r.I != 5 {
		t.Errorf("int SUM = %v", r)
	}
	a = NewAggState("SUM")
	a.Add(value.NewInt(2))
	a.Add(value.NewFloat(0.5))
	if r := a.Result(); r.Typ != value.Float || r.F != 2.5 {
		t.Errorf("mixed SUM = %v", r)
	}
}

// Property: SUM equals the fold of non-null inputs for any input
// sequence.
func TestAggSumProperty(t *testing.T) {
	f := func(xs []float64) bool {
		a := NewAggState("SUM")
		want := 0.0
		for i, x := range xs {
			if i%7 == 3 {
				a.Add(value.NewNull(value.Float))
				continue
			}
			// Avoid NaN/Inf noise from quick's extremes.
			if x != x || x > 1e100 || x < -1e100 {
				x = 1
			}
			a.Add(value.NewFloat(x))
			want += x
		}
		got := a.Result()
		if want == 0 && got.Null {
			return true // all-null sequence
		}
		diff := got.AsFloat() - want
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromValuesCoerces(t *testing.T) {
	v := FromValues(value.Float, []value.Value{value.NewInt(1), value.NewFloat(2.5), value.NewNull(value.Float)})
	if v.Type() != value.Float || v.Len() != 3 {
		t.Fatal("FromValues shape wrong")
	}
	if v.Get(0).F != 1 || v.Get(1).F != 2.5 || !v.IsNull(2) {
		t.Fatal("FromValues values wrong")
	}
}

func TestMinMaxFloat(t *testing.T) {
	lo, hi, ok := MinMaxFloat([]float64{3, 1, 2})
	if !ok || lo != 1 || hi != 3 {
		t.Fatalf("minmax = %v %v %v", lo, hi, ok)
	}
	if _, _, ok := MinMaxFloat(nil); ok {
		t.Fatal("empty input should report !ok")
	}
}
