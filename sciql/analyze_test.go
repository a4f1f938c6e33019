package sciql

import (
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// analyzeRowsRe matches the summary line EXPLAIN ANALYZE appends under
// the operator tree.
var analyzeRowsRe = regexp.MustCompile(`^analyze: rows=(\d+) elapsed=`)

// analyzeRows extracts the executed row count from a rendered EXPLAIN
// ANALYZE result.
func analyzeRows(t *testing.T, rs *Result) int {
	t.Helper()
	for r := 0; r < rs.NumRows(); r++ {
		if m := analyzeRowsRe.FindStringSubmatch(rs.Get(r, 0).S); m != nil {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatalf("bad analyze row count %q: %v", m[1], err)
			}
			return n
		}
	}
	t.Fatalf("no 'analyze: rows=' line in EXPLAIN ANALYZE output:\n%s", rs)
	return 0
}

// TestExplainAnalyzeAgreesWithQuery is the identity suite of the
// profiler: for every query in the vectorized walkthrough set, at
// vectorization off/on and parallelism 1/4, the row count EXPLAIN
// ANALYZE reports must equal the row count Query returns — the profiled
// execution is the real execution, not an estimate.
func TestExplainAnalyzeAgreesWithQuery(t *testing.T) {
	db := setupVectorDB(t)
	for _, q := range vectorQuerySet {
		for _, vec := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				db.Vectorize(vec)
				db.Parallelism(par)
				want, err := db.Query(q)
				if err != nil {
					t.Fatalf("vec=%v par=%d %s: %v", vec, par, q, err)
				}
				got, err := db.Query("EXPLAIN ANALYZE " + q)
				if err != nil {
					t.Fatalf("EXPLAIN ANALYZE vec=%v par=%d %s: %v", vec, par, q, err)
				}
				if n := analyzeRows(t, got); n != want.NumRows() {
					t.Errorf("vec=%v par=%d %s:\nanalyze reports %d rows, Query returned %d\n%s",
						vec, par, q, n, want.NumRows(), got)
				}
			}
		}
	}
}

// TestProfiledResultsByteIdentical pins the profiler's zero-observer-
// effect contract: query results with the trace/slow-query path armed,
// and after an EXPLAIN ANALYZE has run (arming and disarming the
// per-operator profile), render byte-identically to the unarmed
// reference.
func TestProfiledResultsByteIdentical(t *testing.T) {
	db := setupVectorDB(t)
	for _, q := range vectorQuerySet {
		for _, par := range []int{1, 4} {
			db.Parallelism(par)
			want, err := db.Query(q)
			if err != nil {
				t.Fatalf("reference par=%d %s: %v", par, q, err)
			}
			db.SetTraceHook(func(TraceEvent) {})
			db.SetSlowQueryThreshold(1, io.Discard)
			armed, err := db.Query(q)
			db.SetTraceHook(nil)
			db.SetSlowQueryThreshold(0, nil)
			if err != nil {
				t.Fatalf("armed par=%d %s: %v", par, q, err)
			}
			if armed.String() != want.String() {
				t.Errorf("armed result differs par=%d %s:\ngot:\n%s\nwant:\n%s",
					par, q, armed.String(), want.String())
			}
			if _, err := db.Query("EXPLAIN ANALYZE " + q); err != nil {
				t.Fatalf("EXPLAIN ANALYZE par=%d %s: %v", par, q, err)
			}
			after, err := db.Query(q)
			if err != nil {
				t.Fatalf("post-analyze par=%d %s: %v", par, q, err)
			}
			if after.String() != want.String() {
				t.Errorf("post-analyze result differs par=%d %s:\ngot:\n%s\nwant:\n%s",
					par, q, after.String(), want.String())
			}
		}
	}
}

// TestExplainAnalyzeRendersOperatorStats checks the rendered tree
// itself: every executed operator carries wall time and row counts, the
// scan reports chunk and cell volume, and vectorized execution is
// annotated as such.
func TestExplainAnalyzeRendersOperatorStats(t *testing.T) {
	db := setupVectorDB(t)
	q := `EXPLAIN ANALYZE SELECT x, y, v FROM nmatrix WHERE v > 100 ORDER BY x, y LIMIT 10`
	for _, par := range []int{1, 4} {
		db.Parallelism(par)
		rs, err := db.Query(q)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		out := rs.String()
		for _, want := range []string{
			"Scan nmatrix", "time=", "rows=", "chunks=", "cells=",
			"Filter", "rows_in=", "Sort", "Limit", "analyze: rows=10",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("par=%d: EXPLAIN ANALYZE output missing %q:\n%s", par, want, out)
			}
		}
	}
	db.Parallelism(1)
	db.Vectorize(true)
	rs, err := db.Query(`EXPLAIN ANALYZE SELECT x, y FROM nmatrix WHERE v > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.String(), "[vectorized]") {
		t.Errorf("vectorized EXPLAIN ANALYZE missing [vectorized] annotation:\n%s", rs)
	}
}

// TestExplainAnalyzeStructuralOperators: the Tiled line says how many
// anchors folded how many tile cells through which kind of window, the
// Join line how many rows built how many distinct keys of which width —
// or that nothing hashed and the join ran as a nested loop.
func TestExplainAnalyzeStructuralOperators(t *testing.T) {
	db := diffDB(t, "")
	line := func(q, op string) string {
		t.Helper()
		rs, err := db.Query("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for r := 0; r < rs.NumRows(); r++ {
			if s := rs.Get(r, 0).S; strings.Contains(s, op) {
				return s
			}
		}
		t.Fatalf("no %s line in:\n%s", op, rs)
		return ""
	}
	for _, par := range []int{1, 4} {
		db.Parallelism(par)
		for _, tc := range []struct {
			q, op string
			want  []string
		}{
			// 24x24 aligned anchors of 16 cells each; the dense grid is
			// addressed positionally.
			{`SELECT [x], [y], SUM(a) FROM grid GROUP BY DISTINCT grid[x:x+4][y:y+4]`, "TiledAggregate",
				[]string{"rows_in=9216", "rows=576", "cells=9216", "anchors=576", "window=positional", "[vectorized]"}},
			{`SELECT [x], SUM(CASE WHEN a > 9 THEN 1 ELSE 0 END) FROM grid GROUP BY grid[x][*]`, "TiledAggregate",
				[]string{"rows=96", "cells=9216", "anchors=96", "[interpreted]"}},
			{`SELECT l.x, r.x FROM grid AS l JOIN grid[40:46][40:46] AS r ON l.c = r.c`, "Join INNER",
				[]string{"build_rows=36", "keys=9", "key=1-word", "[vectorized]"}},
			{`SELECT l.x, r.x FROM grid AS l JOIN grid[40:42][40:42] AS r ON l.x = r.x AND l.b = r.b`, "Join INNER",
				[]string{"build_rows=4", "keys=4", "key=2-word"}},
		} {
			got := line(tc.q, tc.op)
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("par=%d %s\nline %q lacks %q", par, tc.q, got, w)
				}
			}
		}
	}
	// A window over an unbounded, sparsely filled array is hashed; keys a
	// string column takes part in are encoded; VARCHAR = INTEGER hashes
	// nothing.
	db.MustExec(`
		CREATE ARRAY sp (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT);
		INSERT INTO sp VALUES (0, 0, 1.0), (1000000, 5, 2.0), (1000001, 5, 3.0), (-70000, 123456, 4.0)`)
	if got := line(`SELECT [x], [y], SUM(v), COUNT(*) FROM sp GROUP BY sp[x-1:x+2][y]`, "TiledAggregate"); !strings.Contains(got, "anchors=4") || !strings.Contains(got, "cells=6") || !strings.Contains(got, "window=hashed") {
		t.Errorf("sparse tiling line: %q", got)
	}
	jdb := joinEqDB(t)
	jline := func(q string) string {
		rs := jdb.MustQuery("EXPLAIN ANALYZE " + q)
		for r := 0; r < rs.NumRows(); r++ {
			if s := rs.Get(r, 0).S; strings.Contains(s, "Join INNER") {
				return s
			}
		}
		return ""
	}
	if got := jline(`SELECT l.n, r.m FROM s1 AS l JOIN s2 AS r ON l.p = r.p AND l.q = r.q`); !strings.Contains(got, "key=encoded") || !strings.Contains(got, "build_rows=3") {
		t.Errorf("string join line: %q", got)
	}
	if got := jline(`SELECT l.n, r.m FROM sc AS l JOIN ib AS r ON l.k = r.k`); !strings.Contains(got, "nested loop") {
		t.Errorf("VARCHAR = INTEGER join line: %q", got)
	}
	if got := jline(`SELECT l.n, r.m FROM fn AS l JOIN ib AS r ON l.k = r.k`); !strings.Contains(got, "nested loop") {
		t.Errorf("NaN-keyed join line: %q", got)
	}
	if got := jline(`SELECT l.n, r.m FROM fa AS l JOIN ib AS r ON l.k = r.k`); !strings.Contains(got, "key=1-word") {
		t.Errorf("FLOAT = INTEGER join line: %q", got)
	}
}

// TestExplainAnalyzePerScheme profiles the same filter scan over every
// physical storage scheme, serial and morsel-parallel: the reported
// row count must match the query's result regardless of how the store
// chunks its cells. The CI concurrency-stress step re-runs this under
// -race so the per-chunk profile flushes are vetted against the chunk
// fan-out.
func TestExplainAnalyzePerScheme(t *testing.T) {
	const q = `SELECT x, y, a FROM grid WHERE MOD(x + y, 5) = 0 AND a > 100`
	for _, scheme := range []string{"virtual", "tabular", "dorder", "slab"} {
		t.Run(scheme, func(t *testing.T) {
			db := scanDB(t, scheme)
			for _, par := range []int{1, 4} {
				db.Parallelism(par)
				want, err := db.Query(q)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				got, err := db.Query("EXPLAIN ANALYZE " + q)
				if err != nil {
					t.Fatalf("EXPLAIN ANALYZE par=%d: %v", par, err)
				}
				if n := analyzeRows(t, got); n != want.NumRows() {
					t.Errorf("scheme=%s par=%d: analyze reports %d rows, Query returned %d\n%s",
						scheme, par, n, want.NumRows(), got)
				}
			}
		})
	}
}

// TestExplainAnalyzeThroughAllSurfaces runs EXPLAIN ANALYZE through
// Exec, Query, QueryContext (streaming) and a prepared statement; each
// surface must return the rendered tree.
func TestExplainAnalyzeThroughAllSurfaces(t *testing.T) {
	db := setupVectorDB(t)
	const q = `EXPLAIN ANALYZE SELECT COUNT(*) FROM nmatrix WHERE v > 100`
	check := func(surface string, rs *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", surface, err)
		}
		if !strings.Contains(rs.String(), "analyze: rows=1") {
			t.Errorf("%s: missing analyze summary:\n%s", surface, rs)
		}
	}
	rs, err := db.Exec(q)
	check("Exec", rs, err)
	rs, err = db.Query(q)
	check("Query", rs, err)
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	rs, err = st.Query()
	check("prepared Query", rs, err)
	conn, err := db.Conn(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rows, err := conn.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	var sawSummary bool
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(line, "analyze: rows=1") {
			sawSummary = true
		}
	}
	rows.Close()
	if !sawSummary {
		t.Error("Conn.QueryContext: missing analyze summary in streamed plan")
	}
}
