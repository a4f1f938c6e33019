package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/sql/parser"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestTilingGroupCountProperty: overlapping tiling over an n×n dense
// matrix always yields exactly n² groups (one per valid anchor), and
// DISTINCT tiling with a t-wide tile yields ceil(n/t)² groups.
func TestTilingGroupCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(2 + rng.Intn(10))
		tile := int64(1 + rng.Intn(4))
		e := New()
		stmts, _ := parser.Parse(fmt.Sprintf(`
			CREATE ARRAY m (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 1.0);`, n, n))
		for _, s := range stmts {
			if _, err := e.Exec(s, nil); err != nil {
				return false
			}
		}
		q := fmt.Sprintf(`SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:x+%d][y:y+%d]`, tile, tile)
		s, _ := parser.ParseOne(q)
		ds, err := e.Exec(s, nil)
		if err != nil || ds.NumRows() != int(n*n) {
			t.Logf("overlapping: n=%d tile=%d rows=%d err=%v", n, tile, rowsOf(ds), err)
			return false
		}
		q = fmt.Sprintf(`SELECT [x], [y], SUM(v) FROM m GROUP BY DISTINCT m[x:x+%d][y:y+%d]`, tile, tile)
		s, _ = parser.ParseOne(q)
		ds, err = e.Exec(s, nil)
		want := int(ceilDiv(n, tile) * ceilDiv(n, tile))
		if err != nil || ds.NumRows() != want {
			t.Logf("distinct: n=%d tile=%d rows=%d want=%d err=%v", n, tile, rowsOf(ds), want, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func rowsOf(ds *Dataset) int {
	if ds == nil {
		return -1
	}
	return ds.NumRows()
}

// TestTilingMassConservation: summing SUM(v) over DISTINCT tiles that
// partition the array equals the total sum.
func TestTilingMassConservation(t *testing.T) {
	e := newMatrix(t)
	total := run(t, e, `SELECT SUM(v) FROM matrix`, nil).Get(0, 0).AsFloat()
	tiles := run(t, e, `SELECT SUM(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`, nil)
	sum := 0.0
	for r := 0; r < tiles.NumRows(); r++ {
		sum += tiles.Get(r, 0).AsFloat()
	}
	if sum != total {
		t.Fatalf("tile mass %v != total %v", sum, total)
	}
}

// TestStorageSchemeQueryEquivalence: the same SQL workload gives the
// same answers regardless of the physical storage scheme.
func TestStorageSchemeQueryEquivalence(t *testing.T) {
	results := map[string]string{}
	for _, scheme := range []string{"virtual", "tabular", "dorder", "slab"} {
		e := New()
		e.SetStorageHint("m", storage.Hints{ForceScheme: scheme})
		run(t, e, `
			CREATE ARRAY m (x INTEGER DIMENSION[6], y INTEGER DIMENSION[6], v FLOAT DEFAULT 0.0);
			UPDATE m SET v = x * 6 + y;
			DELETE FROM m WHERE x = 2 AND y = 3;
		`, nil)
		ds := run(t, e, `SELECT [x], [y], AVG(v) FROM m GROUP BY DISTINCT m[x:x+3][y:y+3] ORDER BY 1, 2`, nil)
		results[scheme] = ds.String()
	}
	ref := results["virtual"]
	for scheme, got := range results {
		if got != ref {
			t.Errorf("%s result differs from virtual:\n%s\nvs\n%s", scheme, got, ref)
		}
	}
}

func TestPushdownMatchesFullScan(t *testing.T) {
	e := newMatrix(t)
	// The pushdown path (x = const) must agree with a residual-only
	// filter (MOD trick prevents pushdown).
	fast := run(t, e, `SELECT y, v FROM matrix WHERE x = 2`, nil)
	slow := run(t, e, `SELECT y, v FROM matrix WHERE x + 0 = 2`, nil)
	if fast.String() != slow.String() {
		t.Fatalf("pushdown diverges:\n%s\nvs\n%s", fast, slow)
	}
	// Range pushdown.
	fastR := run(t, e, `SELECT count(*) FROM matrix WHERE x >= 1 AND x < 3`, nil)
	if fastR.Get(0, 0).I != 8 {
		t.Fatalf("range pushdown count = %d, want 8", fastR.Get(0, 0).I)
	}
}

func TestSelectDistinct(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1), (1), (2), (2), (2);
	`, nil)
	ds := run(t, e, `SELECT DISTINCT a FROM t ORDER BY a`, nil)
	if ds.NumRows() != 2 || ds.Get(0, 0).I != 1 || ds.Get(1, 0).I != 2 {
		t.Fatalf("distinct wrong: %s", ds)
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	e := New()
	ds := run(t, e, `SELECT 1 UNION ALL SELECT 1 UNION ALL SELECT 2`, nil)
	if ds.NumRows() != 3 {
		t.Fatalf("UNION ALL rows = %d, want 3", ds.NumRows())
	}
	ds = run(t, e, `SELECT 1 UNION SELECT 1 UNION SELECT 2`, nil)
	if ds.NumRows() != 2 {
		t.Fatalf("UNION rows = %d, want 2", ds.NumRows())
	}
}

func TestOrderByMultipleKeysDesc(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE t (a INTEGER, b INTEGER);
		INSERT INTO t VALUES (1, 2), (1, 1), (2, 9), (0, 5);
	`, nil)
	ds := run(t, e, `SELECT a, b FROM t ORDER BY a DESC, b`, nil)
	want := [][2]int64{{2, 9}, {1, 1}, {1, 2}, {0, 5}}
	for r, w := range want {
		if ds.Get(r, 0).I != w[0] || ds.Get(r, 1).I != w[1] {
			t.Fatalf("row %d = (%d,%d), want %v", r, ds.Get(r, 0).I, ds.Get(r, 1).I, w)
		}
	}
}

func TestAggregatesOverEmptyInput(t *testing.T) {
	e := New()
	run(t, e, `CREATE TABLE t (a INTEGER)`, nil)
	ds := run(t, e, `SELECT COUNT(*), SUM(a), AVG(a), MIN(a), MAX(a) FROM t`, nil)
	if ds.Get(0, 0).I != 0 {
		t.Errorf("COUNT(*) over empty = %v", ds.Get(0, 0))
	}
	for c := 1; c < 5; c++ {
		if !ds.Get(0, c).Null {
			t.Errorf("aggregate %d over empty should be NULL, got %v", c, ds.Get(0, c))
		}
	}
}

func TestMinMaxPreserveType(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE t (s VARCHAR(10));
		INSERT INTO t VALUES ('pear'), ('apple'), ('zed');
	`, nil)
	ds := run(t, e, `SELECT MIN(s), MAX(s) FROM t`, nil)
	if ds.Get(0, 0).S != "apple" || ds.Get(0, 1).S != "zed" {
		t.Fatalf("string MIN/MAX: %v %v", ds.Get(0, 0), ds.Get(0, 1))
	}
}

func TestCountDistinct(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1), (1), (2), (3), (3);
	`, nil)
	ds := run(t, e, `SELECT COUNT(DISTINCT a) FROM t`, nil)
	if got := ds.Get(0, 0).AsInt(); got != 3 {
		t.Fatalf("COUNT(DISTINCT) = %d, want 3", got)
	}
}

func TestNestedPayloadUpdate(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY experiment (
			run INTEGER DIMENSION[2],
			payload FLOAT ARRAY[2][2] DEFAULT 1.0);
	`, nil)
	// Fill nested arrays by hand: the DDL default applies to the
	// nested attribute when each payload is created.
	a, _ := e.Cat.Array("experiment")
	if len(a.Schema.Attrs) != 1 || a.Schema.Attrs[0].Nested == nil {
		t.Fatalf("payload schema wrong: %+v", a.Schema.Attrs)
	}
	if nd := len(a.Schema.Attrs[0].Nested.Dims); nd != 2 {
		t.Fatalf("nested dims = %d, want 2", nd)
	}
	nested := func(base float64) *array.Array {
		st, err := storage.New(*a.Schema.Attrs[0].Nested, storage.Hints{})
		if err != nil {
			t.Fatal(err)
		}
		for x := int64(0); x < 2; x++ {
			for y := int64(0); y < 2; y++ {
				if err := st.Set([]int64{x, y}, 0, value.NewFloat(base+float64(x*2+y))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return &array.Array{Name: "payload", Schema: *a.Schema.Attrs[0].Nested, Store: st}
	}
	before := []*array.Array{nested(-1), nested(10)}
	for i, n := range before {
		if err := a.Store.Set([]int64{int64(i)}, 0, value.NewArray(n)); err != nil {
			t.Fatal(err)
		}
	}
	// The free variables range over the nested cells; the outer cell's
	// dimension is in scope beneath them.
	run(t, e, `UPDATE experiment SET payload[x0][x1] = run * 100 + x0 * 2 + x1 WHERE payload[x0][x1] > 0`, nil)
	after, _ := e.Cat.Array("experiment")
	for i, want := range [][]float64{{-1, 0, 2, 3}, {100, 101, 102, 103}} {
		got := after.Store.Get([]int64{int64(i)}, 0).A.(*array.Array)
		if got == before[i] {
			t.Errorf("run %d: the nested array was written in place", i)
		}
		for p, w := range want {
			c := []int64{int64(p / 2), int64(p % 2)}
			if v := got.Get(c, 0).AsFloat(); v != w {
				t.Errorf("run %d payload%v = %v, want %v", i, c, v, w)
			}
			if v := before[i].Get(c, 0).AsFloat(); v != []float64{-1, 10}[i]+float64(p) {
				t.Errorf("run %d: the version a reader may hold changed at %v: %v", i, c, v)
			}
		}
	}
}

func TestInsertSelectPositionalFill(t *testing.T) {
	e := newMatrix(t)
	// CREATE ARRAY ... AS SELECT with attribute-only columns fills in
	// row-major dimension order (§4.3).
	run(t, e, `CREATE ARRAY copy1 (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], w FLOAT) AS SELECT v FROM matrix`, nil)
	ds := run(t, e, `SELECT copy1[1][2].w`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 6 {
		t.Fatalf("positional fill (1,2) = %v, want 6", got)
	}
}

func TestAlterDimensionUnboundedRelabel(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `ALTER ARRAY matrix ALTER x DIMENSION[-5:*]`, nil)
	a, _ := e.Cat.Array("matrix")
	if a.Schema.Dims[0].Start != -5 {
		t.Fatalf("start = %d", a.Schema.Dims[0].Start)
	}
	ds := run(t, e, `SELECT v FROM matrix WHERE x = -5 AND y = 1`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 1 {
		t.Fatalf("relabeled cell = %v, want 1 (old (0,1))", got)
	}
}

func TestStorageHintForcesScheme(t *testing.T) {
	e := New()
	e.SetStorageHint("forced", storage.Hints{ForceScheme: "slab", SlabSize: 16})
	run(t, e, `CREATE ARRAY forced (x INTEGER DIMENSION[64], v FLOAT DEFAULT 0.0)`, nil)
	a, _ := e.Cat.Array("forced")
	if a.Store.Scheme() != "slab" {
		t.Fatalf("scheme = %s", a.Store.Scheme())
	}
}

func TestScalarSubqueryEmptyIsNull(t *testing.T) {
	e := New()
	run(t, e, `CREATE TABLE t (a INTEGER)`, nil)
	ds := run(t, e, `SELECT (SELECT a FROM t)`, nil)
	if !ds.Get(0, 0).Null {
		t.Fatalf("empty scalar subquery should be NULL, got %v", ds.Get(0, 0))
	}
}

func TestGuardedSetLeavesUnmatchedCells(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY vec (x INTEGER DIMENSION[5], v FLOAT DEFAULT 5.0);
		SET vec[x].v = CASE WHEN x = 0 THEN -1 WHEN x = 4 THEN 99 END;
	`, nil)
	ds := run(t, e, `SELECT v FROM vec WHERE x = 2`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 5 {
		t.Fatalf("unguarded cell changed: %v, want 5", got)
	}
	ds = run(t, e, `SELECT v FROM vec WHERE x = 4`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 99 {
		t.Fatalf("guarded cell = %v, want 99", got)
	}
}

func TestPositionalSetList(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY vec (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		SET vec[0:2].v = (7.5, 8.5);
	`, nil)
	ds := run(t, e, `SELECT v FROM vec ORDER BY x`, nil)
	want := []float64{7.5, 8.5, 0, 0}
	for r, w := range want {
		if got := ds.Get(r, 0).AsFloat(); got != w {
			t.Fatalf("vec[%d] = %v, want %v", r, got, w)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	e := newMatrix(t)
	bad := []string{
		`SELECT nosuchcol FROM matrix`,
		`SELECT * FROM nosuchtable`,
		`SELECT nosuchfunc(1)`,
		`INSERT INTO matrix VALUES (1, 2, 3, 4, 5)`,
		`UPDATE matrix SET nosuch = 1`,
		`SELECT matrix[0][0].nosuchattr`,
		`SELECT [x], v FROM matrix GROUP BY x, matrix[x:x+1]`,
		`CREATE ARRAY matrix (x INTEGER DIMENSION[2], v FLOAT)`, // duplicate name
		`CREATE ARRAY bad (x FLOAT DIMENSION[2], v FLOAT)`,      // float dim type
		`SELECT ?missing_param`,
	}
	for _, q := range bad {
		stmts, err := parser.Parse(q)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		execErr := false
		for _, s := range stmts {
			if _, err := e.Exec(s, nil); err != nil {
				execErr = true
			}
		}
		if !execErr {
			t.Errorf("expected execution error for %q", q)
		}
	}
}

func TestHoleSkippingInScans(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY h (x INTEGER DIMENSION[4], v FLOAT DEFAULT 1.0);
		UPDATE h SET v = NULL WHERE x = 2;
	`, nil)
	ds := run(t, e, `SELECT x FROM h`, nil)
	if ds.NumRows() != 3 {
		t.Fatalf("scan rows = %d, want 3 (hole skipped)", ds.NumRows())
	}
	// Aggregates ignore the hole.
	ds = run(t, e, `SELECT COUNT(v), SUM(v) FROM h`, nil)
	if ds.Get(0, 0).I != 3 || ds.Get(0, 1).AsFloat() != 3 {
		t.Fatalf("aggregate over holes: %v %v", ds.Get(0, 0), ds.Get(0, 1))
	}
}

func TestTimestampDimensionSlicing(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY ts (time TIMESTAMP DIMENSION, data FLOAT);
		INSERT INTO ts VALUES (TIMESTAMP '2010-09-03 16:29:00', 1.0);
		INSERT INTO ts VALUES (TIMESTAMP '2010-09-03 16:35:00', 2.0);
		INSERT INTO ts VALUES (TIMESTAMP '2010-09-03 16:45:00', 3.0);
	`, nil)
	ds := run(t, e, `SELECT count(*) FROM ts[TIMESTAMP '2010-09-03 16:30:00':TIMESTAMP '2010-09-03 16:40:00']`, nil)
	if got := ds.Get(0, 0).I; got != 1 {
		t.Fatalf("window count = %d, want 1", got)
	}
}

func TestDeleteWithoutWhereTable(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1), (2);
		DELETE FROM t;
	`, nil)
	ds := run(t, e, `SELECT count(*) FROM t`, nil)
	if ds.Get(0, 0).I != 0 {
		t.Fatalf("rows after DELETE = %d", ds.Get(0, 0).I)
	}
}

func TestLimitZeroAndOversized(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT x FROM matrix LIMIT 0`, nil)
	if ds.NumRows() != 0 {
		t.Fatalf("LIMIT 0 rows = %d", ds.NumRows())
	}
	ds = run(t, e, `SELECT x FROM matrix LIMIT 999`, nil)
	if ds.NumRows() != 16 {
		t.Fatalf("oversized LIMIT rows = %d", ds.NumRows())
	}
}

func TestSelectItemAliases(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT v * 2 AS double_v, x pos FROM matrix WHERE x = 0 AND y = 0`, nil)
	if ds.Cols[0].Name != "double_v" || ds.Cols[1].Name != "pos" {
		t.Fatalf("aliases: %+v", ds.Cols)
	}
}

func TestValueBasedGroupByHaving(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE t (g INTEGER, v INTEGER);
		INSERT INTO t VALUES (1, 10), (1, 20), (2, 1), (2, 2), (3, 100);
	`, nil)
	ds := run(t, e, `SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) > 5 ORDER BY g`, nil)
	if ds.NumRows() != 2 {
		t.Fatalf("HAVING groups = %d, want 2", ds.NumRows())
	}
	if ds.Get(0, 0).I != 1 || ds.Get(1, 0).I != 3 {
		t.Fatalf("groups: %s", ds)
	}
}
