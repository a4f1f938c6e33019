package sciql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bat"
)

// walkthroughDB builds the paper-walkthrough schema the §3–§5 suite
// queries against.
func walkthroughDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE ARRAY matrix (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		CREATE ARRAY stripes (x INTEGER DIMENSION[4] CHECK(MOD(x,2) = 1), y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		CREATE ARRAY diagonal (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4] CHECK(x = y), v FLOAT DEFAULT 0.0);
		CREATE ARRAY vmatrix (x INTEGER DIMENSION[-1:5], y INTEGER DIMENSION[-1:5], w FLOAT DEFAULT 0);
		UPDATE stripes SET v = CASE WHEN x>y THEN x + y WHEN x<y THEN x - y ELSE 0 END;
		UPDATE diagonal SET v = x + y;
		UPDATE matrix SET v = x * 4 + y;
		INSERT INTO vmatrix SELECT [y], [x], v FROM matrix;
		CREATE TABLE mtable (x INTEGER, y INTEGER, v FLOAT);
		INSERT INTO mtable SELECT x, y, v FROM matrix;
	`)
	return db
}

// walkthroughQueries is the paper-walkthrough query suite: both
// stream-eligible shapes (scan/filter/project/limit) and fallback
// shapes (aggregation, tiling, ORDER BY, DISTINCT, joins, UNION).
var walkthroughQueries = []string{
	`SELECT x, y, v FROM matrix`,
	`SELECT * FROM matrix`,
	`SELECT x, y, v FROM matrix WHERE v > 5`,
	`SELECT x, y, v FROM matrix WHERE x = 2`,
	`SELECT x, y, v FROM matrix WHERE x >= 1 AND x < 3 AND v > 4`,
	`SELECT x + y AS s, v * 2 FROM matrix WHERE MOD(x, 2) = 0`,
	`SELECT x, y, v FROM matrix WHERE v > ?lo`,
	`SELECT x, v FROM matrix LIMIT 5`,
	`SELECT x, v FROM matrix LIMIT 0`,
	`SELECT matrix.v FROM matrix WHERE matrix.x = 1`,
	`SELECT x, y, v FROM matrix WHERE x = 1 AND x = 2`,
	`SELECT x, y, v FROM matrix[0:4:2][*]`,
	`SELECT x, y FROM matrix[1:4:2][0:4:3]`,
	`SELECT x, w FROM vmatrix[-1:5:3][*] WHERE w > 0`,
	`SELECT count(*) FROM stripes`,
	`SELECT x, AVG(v) FROM matrix GROUP BY x`,
	`SELECT [x], [y], AVG(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`,
	`SELECT x, y, AVG(w) FROM vmatrix[0:4][0:4]
	   GROUP BY vmatrix[x][y], vmatrix[x-1][y], vmatrix[x+1][y], vmatrix[x][y-1], vmatrix[x][y+1]`,
	`SELECT x, y, v FROM matrix ORDER BY v DESC LIMIT 3`,
	`SELECT DISTINCT v FROM diagonal`,
	`SELECT m.x, m.v, t.v FROM matrix m JOIN mtable t ON m.x = t.x AND m.y = t.y WHERE m.x < 2`,
	`SELECT x FROM matrix WHERE v > 13 UNION SELECT x FROM matrix WHERE v < 2`,
	`SELECT x, y, v FROM matrix WHERE v > (SELECT AVG(v) FROM matrix)`,
}

var walkthroughArgs = []Arg{Float("lo", 6.5)}

// TestRowsMatchMaterialized checks the satellite identity property:
// Rows iteration produces byte-identical results to the materialized
// interpreter across the walkthrough suite, serially and in parallel.
func TestRowsMatchMaterialized(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			db := walkthroughDB(t)
			db.Parallelism(par)
			for _, q := range walkthroughQueries {
				// Materialized interpreter (no cursor involved).
				mat, err := db.Exec(q, walkthroughArgs...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				// Streaming cursor, drained by hand.
				rows, err := db.QueryContext(context.Background(), q, walkthroughArgs...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				var got []string
				for rows.Next() {
					parts := make([]string, 0, len(rows.Values()))
					for _, v := range rows.Values() {
						parts = append(parts, v.String())
					}
					got = append(got, strings.Join(parts, "|"))
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s: rows.Err: %v", q, err)
				}
				rows.Close()
				var want []string
				for r := 0; r < mat.NumRows(); r++ {
					parts := make([]string, 0, mat.NumCols())
					for c := 0; c < mat.NumCols(); c++ {
						parts = append(parts, mat.Get(r, c).String())
					}
					want = append(want, strings.Join(parts, "|"))
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s:\nrows:\n%s\nmaterialized:\n%s", q, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				// The materialized Query view must render identically too.
				rs, err := db.Query(q, walkthroughArgs...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if rs.String() != mat.String() {
					t.Fatalf("%s: Query view differs from interpreter:\n%s\nvs\n%s", q, rs.String(), mat.String())
				}
			}
		})
	}
}

// TestStreamingIsIncremental pins that eligible queries really stream:
// the first row arrives from an open cursor, not a completed dataset.
func TestStreamingIsIncremental(t *testing.T) {
	db := walkthroughDB(t)
	rows, err := db.QueryContext(context.Background(), `SELECT x, y, v FROM matrix WHERE v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.cur.Streaming() {
		t.Fatal("scan/filter/project query did not take the streaming path")
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	// Aggregations fall back to the materialized path, same interface.
	agg, err := db.QueryContext(context.Background(), `SELECT AVG(v) FROM matrix`)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if agg.cur.Streaming() {
		t.Fatal("aggregate query unexpectedly claims to stream")
	}
}

// bigDB builds a database large enough that queries take measurable
// time, for cancellation tests.
func bigDB(t testing.TB, n int) *DB {
	t.Helper()
	db := Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY big (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(`UPDATE big SET v = x * 31 + y`)
	return db
}

// TestCancelParallelQuery cancels a long parallel aggregation
// mid-flight: the call must return ctx.Err() promptly and leak no
// goroutines (the race detector guards the shutdown path).
func TestCancelParallelQuery(t *testing.T) {
	db := bigDB(t, 256)
	db.Parallelism(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := db.ExecContext(ctx,
				`SELECT MOD(x*31+y, 101), AVG(SQRT(v) * SQRT(v+1) + POWER(v, 0.3)) FROM big GROUP BY MOD(x*31+y, 101)`)
			done <- err
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			// The race between cancel and completion may let a fast run
			// finish; what must never happen is a different error or a
			// hang past the deadline below.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled (or completion), got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("canceled query did not return within 10s")
		}
	}
	waitForGoroutines(t, before)
}

// TestCancelStreamingQuery cancels an open streaming cursor (parallel
// morsel stream): Next must surface ctx.Err() and the workers must
// wind down.
func TestCancelStreamingQuery(t *testing.T) {
	db := bigDB(t, 200)
	db.Parallelism(4)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT x, y, SQRT(v) FROM big WHERE MOD(x+y, 3) = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() { //nolint:revive // drain until cancellation surfaces
	}
	if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled (or drained), got %v", err)
	}
	rows.Close()
	waitForGoroutines(t, before)
}

// TestCloseStopsStream closes a cursor mid-iteration; the producing
// workers must wind down without draining the query.
func TestCloseStopsStream(t *testing.T) {
	db := bigDB(t, 200)
	db.Parallelism(4)
	before := runtime.NumGoroutine()
	rows, err := db.QueryContext(context.Background(), `SELECT x, y, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	rows.Close()
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count settles back to
// (roughly) the baseline, failing the test on a leak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

// TestPreparedStatements covers Prepare/Stmt: plan once, bind many.
func TestPreparedStatements(t *testing.T) {
	db := walkthroughDB(t)
	st, err := db.Prepare(`SELECT v FROM matrix WHERE x = ?x AND y = ?y`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for x := int64(0); x < 4; x++ {
		rs, err := st.Query(Int("x", x), Int("y", x))
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Get(0, 0).AsFloat(); got != float64(x*4+x) {
			t.Fatalf("v(%d,%d) = %v, want %v", x, x, got, x*4+x)
		}
	}
	// Non-SELECT through a prepared statement.
	up, err := db.Prepare(`UPDATE matrix SET v = v + ?d WHERE x = 0 AND y = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Exec(Float("d", 100)); err != nil {
		t.Fatal(err)
	}
	if got := db.MustQuery(`SELECT v FROM matrix WHERE x = 0 AND y = 0`).Get(0, 0).AsFloat(); got != 100 {
		t.Fatalf("after prepared UPDATE, v = %v", got)
	}
	// Query on a DDL statement must be rejected.
	if _, err := st.ExecContext(context.Background(), Int("x", 0), Int("y", 0)); err != nil {
		t.Fatalf("Exec on a SELECT stmt should work: %v", err)
	}
	bad, err := db.Prepare(`CREATE ARRAY nope (x INTEGER DIMENSION[2], v FLOAT DEFAULT 0.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Query(); err == nil {
		t.Fatal("Query on a DDL statement should error")
	}
}

// TestPlanCacheReusesAST pins the ad-hoc plan cache: identical text
// hits the LRU and reuses the parsed statement, so the engine's
// per-node plan memoization applies across calls.
func TestPlanCacheReusesAST(t *testing.T) {
	db := walkthroughDB(t)
	q := `SELECT v FROM matrix WHERE x = ?x`
	first, err := db.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != second[0] {
		t.Fatal("identical text did not reuse the cached AST")
	}
	db.SetPlanCacheSize(0) // disable
	third, err := db.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if third[0] == first[0] {
		t.Fatal("disabled cache still returned the cached AST")
	}
	// LRU eviction: capacity 2, three distinct texts.
	db.SetPlanCacheSize(2)
	a, _ := db.compile(`SELECT v FROM matrix WHERE x = 0`)
	db.MustQuery(`SELECT v FROM matrix WHERE x = 1`)
	db.MustQuery(`SELECT v FROM matrix WHERE x = 2`)
	a2, _ := db.compile(`SELECT v FROM matrix WHERE x = 0`)
	if a[0] == a2[0] {
		t.Fatal("expected eviction of the oldest entry at capacity 2")
	}
}

// TestExplainDirectCompile covers the fixed Explain: leading comments
// work, EXPLAIN prefixes are accepted, and multi-statement input is
// rejected instead of executed.
func TestExplainDirectCompile(t *testing.T) {
	db := walkthroughDB(t)
	plan, err := db.Explain(`SELECT x, v FROM matrix WHERE x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan matrix") || !strings.Contains(plan, "x=1 (pushed)") {
		t.Fatalf("unexpected plan:\n%s", plan)
	}
	viaPrefix, err := db.Explain(`EXPLAIN SELECT x, v FROM matrix WHERE x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if viaPrefix != plan {
		t.Fatalf("EXPLAIN-prefixed text rendered differently:\n%s\nvs\n%s", viaPrefix, plan)
	}
	// Multi-statement input must be rejected — and, critically, not
	// executed (the old string-concat implementation ran it).
	if _, err := db.Explain(`SELECT 1; UPDATE matrix SET v = -1`); err == nil {
		t.Fatal("multi-statement Explain should error")
	}
	if got := db.MustQuery(`SELECT v FROM matrix WHERE x = 3 AND y = 3`).Get(0, 0).AsFloat(); got != 15 {
		t.Fatalf("Explain executed its input! v(3,3) = %v", got)
	}
	if _, err := db.Explain(`UPDATE matrix SET v = 0`); err == nil {
		t.Fatal("Explain of non-SELECT should error")
	}
}

// TestConflictingEqualityPushdown is the regression test for the
// shared-pushdown convergence: WHERE x = 1 AND x = 2 must yield zero
// rows (the executor used to let the second equality overwrite the
// first, returning x=2's rows).
func TestConflictingEqualityPushdown(t *testing.T) {
	db := walkthroughDB(t)
	for _, par := range []int{1, 4} {
		db.Parallelism(par)
		rs := db.MustQuery(`SELECT x, y, v FROM matrix WHERE x = 1 AND x = 2`)
		if rs.NumRows() != 0 {
			t.Fatalf("par=%d: contradiction returned %d rows:\n%s", par, rs.NumRows(), rs)
		}
	}
	// And the plan keeps the contradiction visible.
	plan, err := db.Explain(`SELECT x FROM matrix WHERE x = 1 AND x = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Filter") || !strings.Contains(plan, "x=1 (pushed)") {
		t.Fatalf("expected pushed point plus residual filter:\n%s", plan)
	}
}

// TestRangePushdownConsumed checks that consumed range conjuncts
// restrict correctly (bounds are exact, half-open).
func TestRangePushdownConsumed(t *testing.T) {
	db := walkthroughDB(t)
	rs := db.MustQuery(`SELECT x, y FROM matrix WHERE x >= 1 AND x < 3 AND y <= 1`)
	if rs.NumRows() != 4 { // x in {1,2}, y in {0,1}
		t.Fatalf("range query returned %d rows, want 4:\n%s", rs.NumRows(), rs)
	}
	// Float bounds must NOT be consumed into integer scan bounds.
	rs = db.MustQuery(`SELECT x FROM matrix WHERE x > 0.5 AND y = 0`)
	if rs.NumRows() != 3 { // x in {1,2,3}
		t.Fatalf("float lower bound returned %d rows, want 3:\n%s", rs.NumRows(), rs)
	}
}

// batchDB holds a 10 000-cell array: a scan of it is three column
// batches (4096 + 4096 + 1808 rows) in one chunk serially and several
// chunks in parallel, so a cursor over it crosses batch boundaries.
func batchDB(t testing.TB, par int) *DB {
	t.Helper()
	db := Open()
	db.Parallelism(par)
	db.MustExec(`CREATE ARRAY wide (x INTEGER DIMENSION[10000], v FLOAT DEFAULT 0.0, w INTEGER DEFAULT 0)`)
	db.MustExec(`UPDATE wide SET v = x * 0.5, w = MOD(x, 7)`)
	return db
}

const batchQuery = `SELECT x, v, w FROM wide WHERE w < 6`

// TestRowsAcrossBatchBoundaries is the in-process twin of the wire
// suite's batch-boundary scenarios: a result of more than two batches
// read row by row, through Values and Scan, and through the batch
// accessor at the row limits a portal uses — each compared row for row
// with the materialized result, at parallelism 1 and 4. Closing or
// canceling mid-batch leaves nothing pinned and no goroutine behind.
func TestRowsAcrossBatchBoundaries(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			db := batchDB(t, par)
			want := db.MustQuery(batchQuery)
			if want.NumRows() <= 8192 {
				t.Fatalf("result has %d rows; the test needs more than two batches", want.NumRows())
			}
			before := runtime.NumGoroutine()
			open := func(ctx context.Context) *Rows {
				rows, err := db.QueryContext(ctx, batchQuery)
				if err != nil {
					t.Fatal(err)
				}
				return rows
			}
			settled := func(what string) {
				t.Helper()
				if got := pinned(db); got != 0 {
					t.Fatalf("%s: snapshots_pinned = %d, want 0", what, got)
				}
				waitForGoroutines(t, before)
			}

			// Row by row: Values and Scan agree with the materialized rows.
			rows := open(context.Background())
			n := 0
			for rows.Next() {
				var x int64
				var v float64
				var w Value
				if err := rows.Scan(&x, &v, &w); err != nil {
					t.Fatal(err)
				}
				vals := rows.Values()
				if x != want.Get(n, 0).I || v != want.Get(n, 1).F || w != want.Get(n, 2) ||
					vals[0] != want.Get(n, 0) || vals[1] != want.Get(n, 1) || vals[2] != want.Get(n, 2) {
					t.Fatalf("row %d: scanned (%d, %v, %v), values %v, want %v", n, x, v, w, vals, want.Row(n))
				}
				n++
			}
			if err := rows.Err(); err != nil || n != want.NumRows() {
				t.Fatalf("drained %d rows (err %v), want %d", n, err, want.NumRows())
			}
			settled("drain")

			// The batch accessor at a portal's row limits: suspensions that
			// fall inside, on and across batch boundaries.
			for _, limit := range []int{1, 7, 4096, 5000} {
				rows := open(context.Background())
				n := 0
				for rows.Next() {
					b, lo, hi := rows.Batch(limit)
					if hi-lo > limit || hi <= lo || hi > b.Len() {
						t.Fatalf("limit %d: Batch returned [%d, %d) of %d rows", limit, lo, hi, b.Len())
					}
					for r := lo; r < hi; r++ {
						for c := 0; c < 3; c++ {
							if got := b.Value(c, r); got != want.Get(n, c) {
								t.Fatalf("limit %d: row %d col %d = %v, want %v", limit, n, c, got, want.Get(n, c))
							}
						}
						n++
					}
					if got := rows.Values()[0]; got != want.Get(n-1, 0) {
						t.Fatalf("limit %d: after Batch the cursor stands on x = %v, want %v", limit, got, want.Get(n-1, 0))
					}
				}
				if err := rows.Err(); err != nil || n != want.NumRows() {
					t.Fatalf("limit %d: read %d rows (err %v), want %d", limit, n, err, want.NumRows())
				}
			}
			settled("batch accessor")

			// Close mid-batch, then cancel mid-batch.
			rows = open(context.Background())
			for i := 0; i < 5000 && rows.Next(); i++ {
			}
			rows.Close()
			if rows.Next() {
				t.Fatal("Next after Close returned a row")
			}
			settled("close mid-batch")

			// A canceled stream ends with the cancel or with every row —
			// never clean and short (the parallel stream used to drop the
			// producer's error when it lost a race against its own cancel).
			for i := 0; i < 20; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				rows = open(ctx)
				n := 0
				for ; n < 100 && rows.Next(); n++ {
				}
				cancel()
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) || err == nil && n != want.NumRows() {
					t.Fatalf("after cancel: %d of %d rows, err %v", n, want.NumRows(), err)
				}
				rows.Close()
			}
			settled("cancel mid-batch")
		})
	}
}

// TestValuesBufferIsReused pins the documented contract of Values: the
// slice is the cursor's one row buffer, so holding it across Next is
// the misuse the documentation says it is — the held slice reads the
// new row.
func TestValuesBufferIsReused(t *testing.T) {
	db := batchDB(t, 1)
	for _, tc := range []struct {
		q     string
		boxed bool
	}{
		{batchQuery, false}, // kernel pipeline: typed column batches
		{`SELECT x, v, w FROM wide WHERE w < (SELECT 6)`, false},              // materialized fallback
		{`SELECT x, CASE WHEN w > 3 THEN 'hi' ELSE 'lo' END FROM wide`, true}, // interpreter: boxed columns
	} {
		q := tc.q
		rows, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Values() != nil {
			t.Fatalf("%s: Values before Next is not nil", q)
		}
		if !rows.Next() {
			t.Fatal(rows.Err())
		}
		_, boxed := rows.b.Vecs[0].(*bat.AnyVector)
		if boxed != tc.boxed {
			t.Fatalf("%s: boxed batch = %v, want %v", q, boxed, tc.boxed)
		}
		held := rows.Values()
		first := held[0]
		if !rows.Next() {
			t.Fatal(rows.Err())
		}
		if now := rows.Values(); &now[0] != &held[0] {
			t.Fatalf("%s: Values allocated a fresh row", q)
		}
		if held[0] == first {
			t.Fatalf("%s: a slice held across Next kept the old row: %v", q, held)
		}
		rows.Close()
	}
}

// TestRowsScanAllocatesNothing: Next + Scan into *int64 / *float64 over
// a vectorized batch costs no allocation per row.
func TestRowsScanAllocatesNothing(t *testing.T) {
	db := batchDB(t, 1)
	rows, err := db.QueryContext(context.Background(), `SELECT x, v FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() { // pulls the first batch
		t.Fatal(rows.Err())
	}
	var x int64
	var v float64
	var sum float64
	allocs := testing.AllocsPerRun(2000, func() {
		if !rows.Next() {
			t.Fatal("result ended early")
		}
		if err := rows.Scan(&x, &v); err != nil {
			t.Fatal(err)
		}
		sum += v + float64(x)
	})
	if allocs != 0 {
		t.Fatalf("Next+Scan allocates %v times per row, want 0", allocs)
	}
}
