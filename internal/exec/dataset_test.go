package exec

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func sampleDataset() *Dataset {
	d := NewDataset([]Col{
		{Name: "x", Qual: "t", Typ: value.Int, IsDim: true},
		{Name: "v", Qual: "t", Typ: value.Float},
	})
	d.Append([]value.Value{value.NewInt(2), value.NewFloat(20)})
	d.Append([]value.Value{value.NewInt(1), value.NewFloat(10)})
	d.Append([]value.Value{value.NewInt(3), value.NewFloat(30)})
	return d
}

func TestDatasetColIndex(t *testing.T) {
	d := sampleDataset()
	if d.ColIndex("", "x") != 0 || d.ColIndex("t", "v") != 1 {
		t.Fatal("basic lookup failed")
	}
	if d.ColIndex("other", "x") != -1 {
		t.Fatal("wrong qualifier should miss")
	}
	if d.ColIndex("", "X") != 0 {
		t.Fatal("lookup should be case-insensitive")
	}
	// Ambiguity: two unqualified 'v' columns.
	d.Cols = append(d.Cols, Col{Name: "v", Qual: "u", Typ: value.Float})
	d.Vecs = append(d.Vecs, d.Vecs[1].Clone())
	if d.ColIndex("", "v") != -2 {
		t.Fatal("ambiguous lookup should return -2")
	}
	if d.ColIndex("u", "v") != 2 {
		t.Fatal("qualified lookup should disambiguate")
	}
}

func TestDatasetSortAndGather(t *testing.T) {
	d := sampleDataset()
	d.SortBy([]int{0}, nil)
	if d.Get(0, 0).I != 1 || d.Get(2, 0).I != 3 {
		t.Fatalf("ascending sort wrong: %s", d)
	}
	d.SortBy([]int{0}, []bool{true})
	if d.Get(0, 0).I != 3 {
		t.Fatalf("descending sort wrong: %s", d)
	}
	g := d.Gather([]int{1})
	if g.NumRows() != 1 || g.Get(0, 0).I != 2 {
		t.Fatalf("gather wrong: %s", g)
	}
}

func TestDatasetDedupe(t *testing.T) {
	d := NewDataset([]Col{{Name: "a", Typ: value.Int}})
	for _, v := range []int64{1, 1, 2, 1} {
		d.Append([]value.Value{value.NewInt(v)})
	}
	out, err := New().dedupe(d)
	if err != nil || out.NumRows() != 2 {
		t.Fatalf("dedupe rows = %d", out.NumRows())
	}
}

func TestDatasetStringRendering(t *testing.T) {
	d := sampleDataset()
	s := d.String()
	if !strings.Contains(s, "[x]") {
		t.Errorf("dimension columns should render bracketed:\n%s", s)
	}
	if !strings.Contains(s, "20") {
		t.Errorf("values missing:\n%s", s)
	}
}

func TestRowEnvChaining(t *testing.T) {
	d := sampleDataset()
	outer := &baseEnv{params: map[string]value.Value{"p": value.NewInt(9)}}
	env := &rowEnv{d: d, row: 1, outer: outer}
	if v, ok := env.Lookup("t", "x"); !ok || v.I != 1 {
		t.Fatalf("row lookup: %v %v", v, ok)
	}
	if v, ok := env.Param("p"); !ok || v.I != 9 {
		t.Fatalf("param chain: %v %v", v, ok)
	}
	if _, ok := env.Lookup("", "nothing"); ok {
		t.Fatal("missing name should not resolve")
	}
}
