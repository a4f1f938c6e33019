package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/value"
)

func schema2D(n int64, def float64, hasDefault bool) array.Schema {
	at := array.Attr{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}
	if hasDefault {
		at.Default = value.NewFloat(def)
	}
	return array.Schema{
		Dims: []array.Dimension{
			{Name: "x", Typ: value.Int, Start: 0, End: n, Step: 1},
			{Name: "y", Typ: value.Int, Start: 0, End: n, Step: 1},
		},
		Attrs: []array.Attr{at},
	}
}

func allSchemes(t *testing.T, sch array.Schema) map[string]array.Store {
	t.Helper()
	out := make(map[string]array.Store)
	for _, scheme := range []string{SchemeVirtual, SchemeTabular, SchemeDOrder, SchemeSlab} {
		st, err := NewScheme(scheme, sch, Hints{SlabSize: 4})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out[scheme] = st
	}
	return out
}

func TestSchemesInitializeDefaults(t *testing.T) {
	sch := schema2D(8, 1.5, true)
	for name, st := range allSchemes(t, sch) {
		if st.Len() != 64 {
			t.Errorf("%s: Len = %d, want 64 (defaults materialize)", name, st.Len())
		}
		if got := st.Get([]int64{3, 5}, 0).AsFloat(); got != 1.5 {
			t.Errorf("%s: default cell = %v, want 1.5", name, got)
		}
	}
}

func TestSchemesNoDefaultAllHoles(t *testing.T) {
	sch := schema2D(8, 0, false)
	for name, st := range allSchemes(t, sch) {
		if st.Len() != 0 {
			t.Errorf("%s: Len = %d, want 0 (NULL default => holes)", name, st.Len())
		}
		if !st.Get([]int64{0, 0}, 0).Null {
			t.Errorf("%s: hole should read NULL", name)
		}
	}
}

func TestSchemesSetGetRoundTrip(t *testing.T) {
	sch := schema2D(8, 0, true)
	for name, st := range allSchemes(t, sch) {
		if err := st.Set([]int64{2, 3}, 0, value.NewFloat(7.25)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := st.Get([]int64{2, 3}, 0).AsFloat(); got != 7.25 {
			t.Errorf("%s: round trip = %v, want 7.25", name, got)
		}
	}
}

func TestSchemesHolePunch(t *testing.T) {
	sch := schema2D(4, 1, true)
	for name, st := range allSchemes(t, sch) {
		before := st.Len()
		if err := st.Set([]int64{1, 1}, 0, value.NewNull(value.Float)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Len() != before-1 {
			t.Errorf("%s: Len after hole = %d, want %d", name, st.Len(), before-1)
		}
		if !st.Get([]int64{1, 1}, 0).Null {
			t.Errorf("%s: punched cell should read NULL", name)
		}
	}
}

// TestSchemeEquivalence is the central property test: a random
// sequence of Set operations leaves all four schemes observably
// identical (Get on every coordinate, Len, and the multiset of Scan
// results).
func TestSchemeEquivalence(t *testing.T) {
	const n = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := schema2D(n, 0, rng.Intn(2) == 0)
		stores := map[string]array.Store{}
		for _, scheme := range []string{SchemeVirtual, SchemeTabular, SchemeDOrder, SchemeSlab} {
			st, err := NewScheme(scheme, sch, Hints{SlabSize: 3})
			if err != nil {
				t.Logf("create %s: %v", scheme, err)
				return false
			}
			stores[scheme] = st
		}
		ops := 40 + rng.Intn(60)
		for i := 0; i < ops; i++ {
			x, y := rng.Int63n(n), rng.Int63n(n)
			var v value.Value
			if rng.Intn(5) == 0 {
				v = value.NewNull(value.Float)
			} else {
				v = value.NewFloat(float64(rng.Intn(1000)) / 8)
			}
			for name, st := range stores {
				if err := st.Set([]int64{x, y}, 0, v); err != nil {
					t.Logf("%s set: %v", name, err)
					return false
				}
			}
		}
		ref := stores[SchemeVirtual]
		for name, st := range stores {
			if st.Len() != ref.Len() {
				t.Logf("%s Len=%d virtual Len=%d", name, st.Len(), ref.Len())
				return false
			}
			for x := int64(0); x < n; x++ {
				for y := int64(0); y < n; y++ {
					a := ref.Get([]int64{x, y}, 0)
					b := st.Get([]int64{x, y}, 0)
					if a.Null != b.Null || (!a.Null && a.AsFloat() != b.AsFloat()) {
						t.Logf("%s mismatch at (%d,%d): %v vs %v", name, x, y, a, b)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScanVisitsEveryLiveCell checks Scan completeness and that the
// reported coordinate/value pairs match Get.
func TestScanVisitsEveryLiveCell(t *testing.T) {
	sch := schema2D(6, 2, true)
	for name, st := range allSchemes(t, sch) {
		_ = st.Set([]int64{1, 1}, 0, value.NewNull(value.Float))
		_ = st.Set([]int64{2, 2}, 0, value.NewFloat(9))
		count := 0
		st.Scan(func(coords []int64, vals []value.Value) bool {
			count++
			if got := st.Get(append([]int64(nil), coords...), 0); got.AsFloat() != vals[0].AsFloat() {
				t.Errorf("%s: Scan value %v != Get %v at %v", name, vals[0], got, coords)
			}
			return true
		})
		if count != 35 {
			t.Errorf("%s: Scan visited %d cells, want 35", name, count)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	sch := schema2D(6, 1, true)
	for name, st := range allSchemes(t, sch) {
		count := 0
		st.Scan(func([]int64, []value.Value) bool {
			count++
			return count < 5
		})
		if count != 5 {
			t.Errorf("%s: early stop visited %d, want 5", name, count)
		}
	}
}

func TestBoundsTracking(t *testing.T) {
	sch := array.Schema{
		Dims: []array.Dimension{
			{Name: "x", Typ: value.Int, Start: array.UnboundedLow, End: array.UnboundedHigh, Step: 1},
		},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}},
	}
	for _, mk := range []func(array.Schema) (array.Store, error){NewTabular, NewSlab} {
		st, err := mk(sch)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := st.Bounds(); ok {
			t.Errorf("%s: empty store should have no bounds", st.Scheme())
		}
		_ = st.Set([]int64{-7}, 0, value.NewFloat(1))
		_ = st.Set([]int64{13}, 0, value.NewFloat(2))
		lo, hi, ok := st.Bounds()
		if !ok || lo[0] != -7 || hi[0] != 13 {
			t.Errorf("%s: bounds = %v..%v ok=%v, want -7..13", st.Scheme(), lo, hi, ok)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	sch := schema2D(4, 0, true)
	for name, st := range allSchemes(t, sch) {
		cl := st.Clone()
		_ = st.Set([]int64{1, 1}, 0, value.NewFloat(99))
		if got := cl.Get([]int64{1, 1}, 0).AsFloat(); got == 99 {
			t.Errorf("%s: clone shares storage with original", name)
		}
	}
}

func TestDimensionCheckCarving(t *testing.T) {
	sch := schema2D(4, 1, true)
	sch.Dims[1].Check = func(coords []int64) bool { return coords[0] == coords[1] }
	for name, st := range allSchemes(t, sch) {
		if st.Len() != 4 {
			t.Errorf("%s: diagonal carve Len = %d, want 4", name, st.Len())
		}
		if !st.Get([]int64{0, 1}, 0).Null {
			// Off-diagonal cells exist as holes only in dense stores;
			// Get must still read NULL everywhere.
			t.Errorf("%s: off-diagonal cell should be NULL", name)
		}
	}
}

func TestAdaptivePolicy(t *testing.T) {
	bounded := schema2D(16, 0, true)
	st, err := New(bounded, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme() != SchemeVirtual {
		t.Errorf("bounded dense array: got %s, want virtual", st.Scheme())
	}
	st, err = New(bounded, Hints{ExpectedDensity: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme() != SchemeTabular {
		t.Errorf("sparse hint: got %s, want tabular", st.Scheme())
	}
	unbounded := array.Schema{
		Dims:  []array.Dimension{{Name: "t", Typ: value.Timestamp, Start: array.UnboundedLow, End: array.UnboundedHigh, Step: 0}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}},
	}
	st, err = New(unbounded, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme() != SchemeTabular {
		t.Errorf("order-only timestamp dim: got %s, want tabular", st.Scheme())
	}
	unboundedGrid := array.Schema{
		Dims:  []array.Dimension{{Name: "x", Typ: value.Int, Start: 0, End: array.UnboundedHigh, Step: 1}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}},
	}
	st, err = New(unboundedGrid, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme() != SchemeSlab {
		t.Errorf("unbounded grid dim: got %s, want slab", st.Scheme())
	}
	st, err = New(bounded, Hints{ForceScheme: SchemeDOrder})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme() != SchemeDOrder {
		t.Errorf("forced scheme: got %s, want dorder", st.Scheme())
	}
}

func TestSlabNegativeCoordinates(t *testing.T) {
	sch := array.Schema{
		Dims:  []array.Dimension{{Name: "x", Typ: value.Int, Start: array.UnboundedLow, End: array.UnboundedHigh, Step: 1}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}},
	}
	st, err := NewSlabSized(sch, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{-17, -8, -1, 0, 7, 8, 100} {
		if err := st.Set([]int64{x}, 0, value.NewFloat(float64(x))); err != nil {
			t.Fatalf("set %d: %v", x, err)
		}
	}
	for _, x := range []int64{-17, -8, -1, 0, 7, 8, 100} {
		if got := st.Get([]int64{x}, 0).AsFloat(); got != float64(x) {
			t.Errorf("slab get(%d) = %v", x, got)
		}
	}
	if st.Len() != 7 {
		t.Errorf("slab Len = %d, want 7", st.Len())
	}
}

func TestVirtualRejectsUnbounded(t *testing.T) {
	sch := array.Schema{
		Dims:  []array.Dimension{{Name: "x", Typ: value.Int, Start: 0, End: array.UnboundedHigh, Step: 1}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float}},
	}
	if _, err := NewVirtual(sch); err == nil {
		t.Fatal("virtual store must reject unbounded dimensions")
	}
}

func TestDOrderIsColumnMajor(t *testing.T) {
	sch := schema2D(4, 0, true)
	st, err := NewDOrder(sch)
	if err != nil {
		t.Fatal(err)
	}
	ls := st.(*linearStore)
	// Column-major: stride of dim 0 is 1.
	if ls.strides[0] != 1 || ls.strides[1] != 4 {
		t.Errorf("dorder strides = %v, want [1 4]", ls.strides)
	}
	vs, err := NewVirtual(sch)
	if err != nil {
		t.Fatal(err)
	}
	lv := vs.(*linearStore)
	if lv.strides[0] != 4 || lv.strides[1] != 1 {
		t.Errorf("virtual strides = %v, want [4 1]", lv.strides)
	}
}

func TestStepDimensions(t *testing.T) {
	sch := array.Schema{
		Dims:  []array.Dimension{{Name: "x", Typ: value.Int, Start: 0, End: 10, Step: 2}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewFloat(1)}},
	}
	for name, st := range allSchemes(t, sch) {
		if st.Len() != 5 {
			t.Errorf("%s: stepped dim Len = %d, want 5", name, st.Len())
		}
		count := 0
		st.Scan(func(coords []int64, _ []value.Value) bool {
			if coords[0]%2 != 0 {
				t.Errorf("%s: off-step coordinate %d", name, coords[0])
			}
			count++
			return true
		})
		if count != 5 {
			t.Errorf("%s: stepped scan visited %d, want 5", name, count)
		}
	}
}

// chunkTestSchema has two attributes so pruning is observable.
func chunkTestSchema(n int64) array.Schema {
	return array.Schema{
		Dims: []array.Dimension{
			{Name: "x", Typ: value.Int, Start: 0, End: n, Step: 1},
			{Name: "y", Typ: value.Int, Start: 0, End: n, Step: 1},
		},
		Attrs: []array.Attr{
			{Name: "a", Typ: value.Float, Default: value.NewNull(value.Float)},
			{Name: "b", Typ: value.Int, Default: value.NewNull(value.Int)},
		},
	}
}

// renderScan flattens a scan into "x,y:v0|v1|..." lines.
func renderScan(scan array.ChunkScan) []string {
	var out []string
	scan(func(coords []int64, vals []value.Value) bool {
		line := ""
		for i, c := range coords {
			if i > 0 {
				line += ","
			}
			line += value.NewInt(c).String()
		}
		line += ":"
		for i, v := range vals {
			if i > 0 {
				line += "|"
			}
			line += v.String()
		}
		out = append(out, line)
		return true
	})
	return out
}

// batchLines renders a column batch in renderScan's line format.
func batchLines(b array.ColumnBatch, nd int) []string {
	var out []string
	for r := 0; r < b.Rows(); r++ {
		line := ""
		for i, v := range b {
			switch {
			case i == 0:
			case i < nd:
				line += ","
			case i == nd:
				line += ":"
			default:
				line += "|"
			}
			line += v.Get(r).String()
		}
		out = append(out, line)
	}
	return out
}

// renderColumns flattens column chunks, walked in batches of at most
// max rows, into renderScan's line format.
func renderColumns(chunks []array.ColumnChunk, max, nd int) []string {
	var out []string
	for _, chunk := range chunks {
		chunk(max, func(b array.ColumnBatch) bool {
			if b.Rows() == 0 || b.Rows() > max {
				panic(fmt.Sprintf("batch of %d rows, want 1..%d", b.Rows(), max))
			}
			out = append(out, batchLines(b, nd)...)
			return true
		})
	}
	return out
}

func sameLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: %q != %q", label, i, got[i], want[i])
		}
	}
}

// chunkTestStores is allSchemes plus the adaptive default.
func chunkTestStores(t *testing.T, sch array.Schema) map[string]array.Store {
	out := allSchemes(t, sch)
	st, err := New(sch, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	out["adaptive"] = st
	return out
}

// TestScanChunksMatchScan pins the chunk contract on every scheme, for
// the boxed and the columnar face alike: concatenating the chunks in
// order reproduces Scan exactly — cells, order, coordinates, NULLs and
// holes — for any target chunk count and batch size, attribute pruning
// never changes which cells are visited (liveness is judged on all
// attributes), chunk i covers the cells ChunkStats(target)[i]
// describes, and a dimension restriction admits exactly the cells its
// ranges contain. The 13x13 array is one segment spanning three bitmap
// words, so every batch boundary (7, 50) falls inside a word; the 70x70
// one is two segments of a positional scheme (4096 + 804 cells) and
// hundreds of 4x4 slabs, so chunk boundaries (which sit on segments),
// the segment boundary inside a row, word and batch boundaries all fall
// inside the scan and a batch has to be cut where a segment ends.
func TestScanChunksMatchScan(t *testing.T) {
	for _, n := range []int64{13, 70} {
		testScanChunksMatchScan(t, n)
	}
}

func testScanChunksMatchScan(t *testing.T, n int64) {
	sch := chunkTestSchema(n)
	for name, st := range chunkTestStores(t, sch) {
		name = fmt.Sprintf("%s n=%d", name, n)
		// Sparse-ish fill; cell (2,3) is live only through attribute b,
		// so a scan pruned to attribute a must still visit it (as NULL).
		for x := int64(0); x < n; x++ {
			for y := int64(0); y < n; y++ {
				if (x+y)%3 == 0 {
					continue // leave holes
				}
				if err := st.Set([]int64{x, y}, 0, value.NewFloat(float64(x*n+y))); err != nil {
					t.Fatal(err)
				}
				if (x*y)%5 == 0 {
					if err := st.Set([]int64{x, y}, 1, value.NewInt(x-y)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := st.Set([]int64{2, 3}, 1, value.NewInt(42)); err != nil {
			t.Fatal(err)
		}
		if err := st.Set([]int64{2, 3}, 0, value.NewNull(value.Float)); err != nil {
			t.Fatal(err)
		}
		cs, ok := st.(array.ChunkedScanner)
		if !ok {
			t.Fatalf("%s: store does not implement ChunkedScanner", name)
		}
		cc, ok := st.(array.ColumnScanner)
		if !ok {
			t.Fatalf("%s: store does not implement ColumnScanner", name)
		}
		want := renderScan(st.Scan)
		for _, target := range []int{1, 3, 32, 100} {
			chunks := cs.ScanChunks(target, nil)
			var got []string
			for _, c := range chunks {
				got = append(got, renderScan(c)...)
			}
			sameLines(t, fmt.Sprintf("%s target=%d", name, target), got, want)
			cols := cc.ColumnChunks(target, nil, nil)
			stats := st.(array.StatsProvider).ChunkStats(target)
			if len(cols) != len(chunks) || len(stats) != len(chunks) {
				t.Fatalf("%s target=%d: %d boxed chunks, %d column chunks, %d chunk stats", name, target, len(chunks), len(cols), len(stats))
			}
			for _, max := range []int{7, 50, 4096} {
				sameLines(t, fmt.Sprintf("%s target=%d max=%d columnar", name, target, max), renderColumns(cols, max, 2), want)
			}
			for ci := range chunks {
				label := fmt.Sprintf("%s target=%d chunk %d", name, target, ci)
				cells := renderColumns(cols[ci:ci+1], 7, 2)
				sameLines(t, label, cells, renderScan(chunks[ci]))
				if int64(len(cells)) != stats[ci].Rows {
					t.Fatalf("%s: %d cells, zone map says %d", label, len(cells), stats[ci].Rows)
				}
			}
		}
		// Pruned to attribute b only: same cells, the one column is b.
		var wantB []string
		st.Scan(func(coords []int64, vals []value.Value) bool {
			wantB = append(wantB, fmt.Sprintf("%d,%d:%s", coords[0], coords[1], vals[1]))
			return true
		})
		var prunedB []string
		for _, c := range cs.ScanChunks(3, []int{1}) {
			prunedB = append(prunedB, renderScan(c)...)
		}
		sameLines(t, name+" pruned", prunedB, wantB)
		sameLines(t, name+" pruned columnar", renderColumns(cc.ColumnChunks(3, []int{1}, nil), 7, 2), wantB)
		// Dimensions only: liveness still comes from the attributes.
		if got := renderColumns(cc.ColumnChunks(3, []int{}, nil), 50, 2); len(got) != len(want) {
			t.Fatalf("%s dims-only: %d cells, want %d", name, len(got), len(want))
		}
		// Restrictions: contiguous on either dimension, a point, strides,
		// ranges past the bounds, and an empty range.
		full := array.DimRange{Full: true}
		for _, restrict := range [][]array.DimRange{
			{{Lo: 2, Hi: 9, Step: 1}, full},
			{full, {Lo: 5, Hi: 11, Step: 1}},
			{{Lo: 1, Hi: 12, Step: 1}, {Lo: 3, Hi: 4, Step: 1}},
			{{Lo: 4, Hi: 5, Step: 1}, {Lo: 6, Hi: 7, Step: 1}},
			{{Lo: 1, Hi: n, Step: 4}, {Lo: 0, Hi: n, Step: 3}},
			{{Lo: -50, Hi: 1 << 62, Step: 1}, {Lo: -1 << 62, Hi: 7, Step: 1}},
			{{Lo: n + 7, Hi: n + 17, Step: 1}, full},
			{{Lo: 6, Hi: 6, Step: 1}, full},
			{{Lo: n - 14, Hi: n - 8, Step: 1}, {Lo: 1, Hi: n - 1, Step: 1}}, // across the segment boundary when n = 70
		} {
			var wantR []string
			for _, line := range want {
				var x, y int64
				fmt.Sscanf(line, "%d,%d:", &x, &y)
				if restrict[0].Contains(x) && restrict[1].Contains(y) {
					wantR = append(wantR, line)
				}
			}
			for _, target := range []int{1, 3, 32} {
				got := renderColumns(cc.ColumnChunks(target, nil, restrict), 7, 2)
				sameLines(t, fmt.Sprintf("%s target=%d restrict=%v", name, target, restrict), got, wantR)
			}
		}
	}
}

// TestColumnChunksAreViewsNeverWrittenThrough: a dense scheme without
// holes hands out views of its own columns (no copy), a view's
// capacity stops at its last element so appending to it cannot touch
// the store, and mutating a clone — what every engine write does —
// leaves batches taken from the original unchanged.
func TestColumnChunksAreViewsNeverWrittenThrough(t *testing.T) {
	sch := schema2D(13, 1.5, true)
	for name, st := range chunkTestStores(t, sch) {
		var batches []array.ColumnBatch
		for _, c := range st.(array.ColumnScanner).ColumnChunks(3, nil, nil) {
			c(50, func(b array.ColumnBatch) bool {
				batches = append(batches, b)
				return true
			})
		}
		render := func() (out []string) {
			for _, b := range batches {
				out = append(out, batchLines(b, 2)...)
			}
			return out
		}
		before := render()
		if len(before) != 169 {
			t.Fatalf("%s: %d cells, want 169", name, len(before))
		}
		if ls, ok := st.(*linearStore); ok {
			pos := 0
			for _, b := range batches {
				data := b[2].(*bat.FloatVector).Floats()
				if &data[0] != &ls.cols[0].segs[pos>>segShift].f[pos&(segCells-1)] {
					t.Errorf("%s: batch at position %d is a copy, want a view of the segment", name, pos)
				}
				if cap(data) != len(data) {
					t.Errorf("%s: view capacity %d exceeds its length %d", name, cap(data), len(data))
				}
				pos += len(data)
			}
		}
		clone := st.Clone()
		for x := int64(0); x < 13; x++ {
			if err := clone.Set([]int64{x, x}, 0, value.NewFloat(-1)); err != nil {
				t.Fatal(err)
			}
			if err := clone.Set([]int64{x, 0}, 0, value.NewNull(value.Float)); err != nil {
				t.Fatal(err)
			}
		}
		sameLines(t, name+" after mutating a clone", render(), before)
	}
}

// TestScanChunksEarlyStop: returning false stops only that chunk.
func TestScanChunksEarlyStop(t *testing.T) {
	sch := schema2D(8, 1, true)
	for name, st := range chunkTestStores(t, sch) {
		cs := st.(array.ChunkedScanner)
		chunks := cs.ScanChunks(4, nil)
		for _, c := range chunks {
			count := 0
			c(func([]int64, []value.Value) bool {
				count++
				return false
			})
			if count != 1 {
				t.Fatalf("%s: early-stopped chunk visited %d cells", name, count)
			}
		}
		for _, c := range st.(array.ColumnScanner).ColumnChunks(4, nil, nil) {
			batches := 0
			c(3, func(b array.ColumnBatch) bool {
				batches++
				return false
			})
			if batches != 1 {
				t.Fatalf("%s: early-stopped column chunk yielded %d batches", name, batches)
			}
		}
	}
}

// segmentSet lists the segments of every attribute column of a store,
// in a fixed order, for identity comparisons.
func segmentSet(t *testing.T, st array.Store) [][]*segment {
	t.Helper()
	switch s := st.(type) {
	case *linearStore:
		out := make([][]*segment, len(s.cols))
		for ai, c := range s.cols {
			out[ai] = append([]*segment(nil), c.segs...)
		}
		return out
	case *tabularStore:
		out := make([][]*segment, len(s.cols))
		for ai, c := range s.cols {
			out[ai] = append([]*segment(nil), c.segs...)
		}
		return out
	case *slabStore:
		out := make([][]*segment, len(s.attrs))
		for _, k := range s.sortedKeys() {
			for ai, sg := range s.blocks[k].segs {
				out[ai] = append(out[ai], sg)
			}
		}
		return out
	}
	t.Fatalf("%s: unknown store type %T", st.Scheme(), st)
	return nil
}

// TestCloneSharesUntouchedSegments pins the ownership rule. A clone
// shares every segment with its source. After k Sets on the clone,
// exactly the segments of the written attribute that hold a written
// cell differ by identity; the source, an older clone and batch views
// taken before the writes still read the old values. And a write to
// the source after Clone does not reach the clone.
func TestCloneSharesUntouchedSegments(t *testing.T) {
	const n = 100 // 10000 cells: three segments per column
	sch := chunkTestSchema(n)
	for name, st := range chunkTestStores(t, sch) {
		for x := int64(0); x < n; x++ {
			for y := int64(0); y < n; y++ {
				if err := st.Set([]int64{x, y}, 0, value.NewFloat(float64(x*n+y))); err != nil {
					t.Fatal(err)
				}
				if err := st.Set([]int64{x, y}, 1, value.NewInt(x-y)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var views []array.ColumnBatch
		for _, c := range st.(array.ColumnScanner).ColumnChunks(3, nil, nil) {
			c(4096, func(b array.ColumnBatch) bool {
				views = append(views, b)
				return true
			})
		}
		render := func() (out []string) {
			for _, b := range views {
				out = append(out, batchLines(b, 2)...)
			}
			return out
		}
		before := render()
		want := renderScan(st.Scan)
		older := st.Clone()
		clone := st.Clone()
		base := segmentSet(t, st)
		for ai, segs := range segmentSet(t, clone) {
			for k, sg := range segs {
				if sg != base[ai][k] {
					t.Fatalf("%s: a fresh clone copied segment %d of attribute %d", name, k, ai)
				}
			}
		}
		// Writes to attribute 0 at cells that all sit in one segment of
		// a positional scheme (row 7) and in one 4x4 slab.
		var copied int64
		clone.(array.BulkWriter).ObserveCopies(func(bytes int64) { copied += bytes })
		for y := int64(0); y < 4; y++ {
			if err := clone.Set([]int64{7, y}, 0, value.NewFloat(-1)); err != nil {
				t.Fatal(err)
			}
		}
		if copied == 0 {
			t.Errorf("%s: the observer heard of no copy", name)
		}
		after := segmentSet(t, clone)
		touched := 0
		for k, sg := range after[0] {
			if sg != base[0][k] {
				touched++
			}
		}
		if touched != 1 {
			t.Errorf("%s: %d segments of the written attribute were copied, want 1", name, touched)
		}
		for k, sg := range after[1] {
			if sg != base[1][k] {
				t.Errorf("%s: segment %d of the attribute not written was copied", name, k)
			}
		}
		for label, s := range map[string]array.Store{"source": st, "older clone": older} {
			sameLines(t, name+": "+label+" after writes to a clone", renderScan(s.Scan), want)
		}
		sameLines(t, name+": views taken before the writes", render(), before)
		if got := clone.Get([]int64{7, 3}, 0).AsFloat(); got != -1 {
			t.Errorf("%s: clone reads %v at a written cell, want -1", name, got)
		}
		// The source is a version of its own too: it copies before it
		// writes, so the clones keep what they had.
		if err := st.Set([]int64{50, 50}, 1, value.NewInt(12345)); err != nil {
			t.Fatal(err)
		}
		for label, s := range map[string]array.Store{"clone": clone, "older clone": older} {
			if got := s.Get([]int64{50, 50}, 1).AsInt(); got != 0 {
				t.Errorf("%s: a write to the source reached the %s: %d", name, label, got)
			}
		}
		sameLines(t, name+": views after a write to the source", render(), before)
	}
}

// TestConcurrentClonesAndReaders runs, under -race, what the catalog
// does to a published version: readers scan it and read its zone maps
// while two writers each clone it and write their clone.
func TestConcurrentClonesAndReaders(t *testing.T) {
	const n = 100
	sch := chunkTestSchema(n)
	for name, st := range chunkTestStores(t, sch) {
		for x := int64(0); x < n; x++ {
			for y := int64(0); y < n; y += 2 {
				if err := st.Set([]int64{x, y}, 0, value.NewFloat(float64(x*n+y))); err != nil {
					t.Fatal(err)
				}
			}
		}
		published := st.Clone() // st itself is never touched again
		want := renderScan(published.Scan)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					got := renderColumns(published.(array.ColumnScanner).ColumnChunks(3, nil, nil), 4096, 2)
					if len(got) != len(want) {
						t.Errorf("%s: reader saw %d cells, want %d", name, len(got), len(want))
						return
					}
					for _, cs := range published.(array.StatsProvider).ChunkStats(3) {
						if cs.Rows > 0 && cs.Attrs[0].Min.AsFloat() < 0 {
							t.Errorf("%s: reader saw a writer's value in the zone maps", name)
						}
					}
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					mine := published.Clone()
					for y := int64(0); y < n; y++ {
						if err := mine.Set([]int64{int64(10*w + i), y}, 0, value.NewFloat(-float64(w+1))); err != nil {
							t.Error(err)
							return
						}
					}
					if got := mine.Get([]int64{int64(10*w + i), 1}, 0).AsFloat(); got != -float64(w+1) {
						t.Errorf("%s: writer %d reads %v from its own clone", name, w, got)
					}
					mine.(array.StatsProvider).ChunkStats(3)
				}
			}()
		}
		wg.Wait()
		sameLines(t, name+": published version after concurrent clones", renderScan(published.Scan), want)
	}
}

// TestSegmentZoneMapsMatchFromScratch: after random writes across
// clone generations — NaN and NULL placed first, last and in between,
// in every segment — the merged per-segment entries of every version
// equal statistics computed from scratch by walking its chunks.
func TestSegmentZoneMapsMatchFromScratch(t *testing.T) {
	const n = 100
	sch := chunkTestSchema(n)
	nan := value.NewFloat(math.NaN())
	for name, st := range chunkTestStores(t, sch) {
		rng := rand.New(rand.NewSource(11))
		versions := []array.Store{st}
		for gen := 0; gen < 6; gen++ {
			cur := versions[len(versions)-1]
			cur.(array.StatsProvider).ChunkStats(3) // build entries the next version inherits
			next := cur.Clone()
			for i := 0; i < 400; i++ {
				c := []int64{rng.Int63n(n), rng.Int63n(n)}
				var v value.Value
				switch rng.Intn(6) {
				case 0:
					v = value.NewNull(value.Float)
				case 1:
					v = nan
				default:
					v = value.NewFloat(float64(rng.Intn(2000) - 1000))
				}
				if err := next.Set(c, 0, v); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					w := value.NewInt(rng.Int63n(100))
					if rng.Intn(4) == 0 {
						w = value.NewNull(value.Int)
					}
					if err := next.Set(c, 1, w); err != nil {
						t.Fatal(err)
					}
				}
			}
			// NaN as the very first and the very last value of segments.
			for _, c := range [][]int64{{0, 0}, {int64(gen), 0}, {40, 95}, {40, 96}, {n - 1, n - 1}} {
				if err := next.Set(c, 0, nan); err != nil {
					t.Fatal(err)
				}
			}
			versions = append(versions, next)
		}
		for gen, v := range versions {
			assertStatsFresh(t, name, v, sch, fmt.Sprintf("generation %d", gen))
		}
	}
}

// TestBulkWriterMatchesGetAndSet pins the bulk-write face on every
// scheme against the cell-at-a-time one. CoveredChunks yields exactly
// the coordinates the dimensions cover and their CHECKs admit — holes
// as all-NULL rows — each attribute equal to Get, under restrictions
// too; and Scatter leaves the store as one Set per row would.
func TestBulkWriterMatchesGetAndSet(t *testing.T) {
	const n = 70
	sch := chunkTestSchema(n)
	sch.Dims[1].Check = func(c []int64) bool { return (c[0]+2*c[1])%11 != 0 }
	full := array.DimRange{Full: true}
	for name, st := range chunkTestStores(t, sch) {
		for x := int64(0); x < n; x++ {
			for y := int64(0); y < n; y++ {
				if (x+y)%3 != 0 && sch.Dims[1].Check([]int64{x, y}) {
					if err := st.Set([]int64{x, y}, int((x+y)%2), value.NewInt(x*n+y)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		bw := st.(array.BulkWriter)
		for _, restrict := range [][]array.DimRange{
			nil,
			{{Lo: 50, Hi: 66, Step: 1}, full},
			{{Lo: 3, Hi: n, Step: 5}, {Lo: 10, Hi: 12, Step: 1}},
			{{Lo: 9, Hi: 10, Step: 1}, {Lo: 9, Hi: 10, Step: 1}},
			{{Lo: 2 * n, Hi: 3 * n, Step: 1}, full},
		} {
			var want []string
			for x := int64(0); x < n; x++ {
				for y := int64(0); y < n; y++ {
					c := []int64{x, y}
					if !sch.Dims[1].Check(c) || restrict != nil && !(restrict[0].Contains(x) && restrict[1].Contains(y)) {
						continue
					}
					want = append(want, fmt.Sprintf("%d,%d:%s|%s", x, y, st.Get(c, 0), st.Get(c, 1)))
				}
			}
			got := renderColumns(bw.CoveredChunks(3, restrict), 50, 2)
			// The covered order is the scheme's own; the cells are not.
			sort.Strings(got)
			sort.Strings(want)
			sameLines(t, fmt.Sprintf("%s covered restrict=%v", name, restrict), got, want)
		}
		// Scatter a column of values, NULLs and repeated cells (the later
		// row wins) against one Set per row on a clone.
		viaSet := st.Clone()
		rng := rand.New(rand.NewSource(5))
		xs, ys := make([]int64, 600), make([]int64, 600)
		vals := make([]value.Value, len(xs))
		for i := range xs {
			for {
				xs[i], ys[i] = rng.Int63n(n), rng.Int63n(n)
				if sch.Dims[1].Check([]int64{xs[i], ys[i]}) {
					break
				}
			}
			vals[i] = value.NewFloat(float64(rng.Intn(999)))
			if rng.Intn(4) == 0 {
				vals[i] = value.NewNull(value.Float)
			}
			if err := viaSet.Set([]int64{xs[i], ys[i]}, 0, vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		coords := []bat.Vector{bat.NewIntVector(xs), bat.NewIntVector(ys)}
		// The clone shares every segment, so the write copies what it
		// touches; writing the same cells again finds them its own.
		var segments, bytes int64
		bw.ObserveCopies(func(b int64) { segments, bytes = segments+1, bytes+b })
		if err := bw.Scatter(coords, 0, bat.FromValues(value.Float, vals)); err != nil {
			t.Fatal(err)
		}
		if segments == 0 || bytes == 0 {
			t.Errorf("%s: Scatter into shared segments copied %d segments, %d bytes", name, segments, bytes)
		}
		sameLines(t, name+" after Scatter", renderScan(st.Scan), renderScan(viaSet.Scan))
		if st.Len() != viaSet.Len() {
			t.Errorf("%s: Len %d after Scatter, %d after the same Sets", name, st.Len(), viaSet.Len())
		}
		segments = 0
		if _ = bw.Scatter(coords, 0, bat.FromValues(value.Float, vals)); segments != 0 {
			t.Errorf("%s: Scatter into its own segments copied %d", name, segments)
		}
		assertStatsFresh(t, name, st, sch, "after Scatter")
		if err := bw.Scatter([]bat.Vector{bat.NewIntVector([]int64{n}), bat.NewIntVector([]int64{0})}, 0, bat.FromValues(value.Float, vals[:1])); err == nil && st.Scheme() != SchemeSlab && st.Scheme() != SchemeTabular {
			t.Errorf("%s: Scatter outside the bounds did not fail", name)
		}
	}
}
