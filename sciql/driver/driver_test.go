package driver

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDatabaseSQLRoundTrip is the end-to-end acceptance path: open the
// default DSN through stdlib database/sql, create an array, update it,
// run a parameterized SELECT through QueryContext and scan the rows.
func TestDatabaseSQLRoundTrip(t *testing.T) {
	db, err := sql.Open("sciql", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	if _, err := db.ExecContext(ctx, `CREATE ARRAY rt (
		x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, `UPDATE rt SET v = x * 4 + y`); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryContext(ctx,
		`SELECT x, y, v FROM rt WHERE v >= ?lo AND x = ?2`,
		sql.Named("lo", 5.0), int64(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x", "y", "v"}; strings.Join(cols, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", cols, want)
	}
	var got []float64
	for rows.Next() {
		var x, y int64
		var v float64
		if err := rows.Scan(&x, &y, &v); err != nil {
			t.Fatal(err)
		}
		if v != float64(x*4+y) {
			t.Fatalf("row (%d,%d) = %v, want %v", x, y, v, x*4+y)
		}
		got = append(got, v)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // x=2: v in {8,9,10,11}, all >= 5
		t.Fatalf("got %d rows, want 4: %v", len(got), got)
	}
}

// TestPreparedStatementReuse exercises driver.Stmt: prepared once,
// executed with different bindings.
func TestPreparedStatementReuse(t *testing.T) {
	db, err := sql.Open("sciql", "prepared-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	mustExec(t, db, `CREATE ARRAY ps (x INTEGER DIMENSION[8], v FLOAT DEFAULT 0.0)`)
	mustExec(t, db, `UPDATE ps SET v = x * 1.5`)

	st, err := db.PrepareContext(ctx, `SELECT v FROM ps WHERE x = ?x`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for x := int64(0); x < 8; x++ {
		var v float64
		if err := st.QueryRowContext(ctx, sql.Named("x", x)).Scan(&v); err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if v != float64(x)*1.5 {
			t.Fatalf("v(%d) = %v, want %v", x, v, float64(x)*1.5)
		}
	}
}

// TestContextCancelAborts verifies a canceled context aborts a
// running query through the standard interface.
func TestContextCancelAborts(t *testing.T) {
	db, err := sql.Open("sciql", "cancel-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE ARRAY big (x INTEGER DIMENSION[300], y INTEGER DIMENSION[300], v FLOAT DEFAULT 0.0)`)
	mustExec(t, db, `UPDATE big SET v = x + y`)
	DB("cancel-test").Parallelism(4)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	// Aggregation over 90k cells with a non-trivial expression: long
	// enough that cancellation normally lands mid-flight. Both
	// outcomes of the race are accepted; what must never happen is a
	// non-context error or a hang.
	_, err = db.QueryContext(ctx, `SELECT AVG(SQRT(v) * SQRT(v+1) + POWER(v, 0.3)) FROM big GROUP BY MOD(x*31+y, 97)`)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled or success(race), got %v", err)
	}
}

// TestTransactions drives snapshot-isolated transactions through the
// standard database/sql surface: writes are invisible until Commit
// and discarded by Rollback.
func TestTransactions(t *testing.T) {
	db, err := sql.Open("sciql", "tx-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE ARRAY txm (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)

	count := func(where string) int {
		t.Helper()
		var n int
		if err := db.QueryRow(`SELECT COUNT(*) FROM txm WHERE v > ?1`, 0.5).Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE txm SET v = 1.0`); err != nil {
		t.Fatal(err)
	}
	if n := count(""); n != 0 {
		t.Fatalf("uncommitted write visible outside the tx: %d rows", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(""); n != 4 {
		t.Fatalf("after commit: %d rows, want 4", n)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE txm SET v = 0.0`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := count(""); n != 4 {
		t.Fatalf("rollback leaked: %d rows, want 4", n)
	}

	// Serializable is refused rather than silently weakened.
	if _, err := db.BeginTx(context.Background(), &sql.TxOptions{Isolation: sql.LevelSerializable}); err == nil ||
		!strings.Contains(err.Error(), "isolation") {
		t.Fatalf("BeginTx(serializable) error = %v, want isolation-level refusal", err)
	}
}

func mustExec(t *testing.T, db *sql.DB, q string) {
	t.Helper()
	if _, err := db.Exec(q); err != nil {
		t.Fatalf("%v\nSQL: %s", err, q)
	}
}

// TestColumnTypes pins the driver's sql.ColumnType support: database
// type names and scan types report real SciQL types.
func TestColumnTypes(t *testing.T) {
	db, err := sql.Open("sciql", "coltypes")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE ARRAY ct (x INTEGER DIMENSION[2], v FLOAT DEFAULT 1.5)`)
	rows, err := db.Query(`SELECT x, v FROM ct`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 2 {
		t.Fatalf("got %d column types", len(cts))
	}
	if got := cts[0].DatabaseTypeName(); got != "INTEGER" {
		t.Fatalf("col 0 type name = %q, want INTEGER", got)
	}
	if got := cts[1].DatabaseTypeName(); got != "FLOAT" {
		t.Fatalf("col 1 type name = %q, want FLOAT", got)
	}
	if got := cts[0].ScanType(); got != reflect.TypeOf(int64(0)) {
		t.Fatalf("col 0 scan type = %v, want int64", got)
	}
	if got := cts[1].ScanType(); got != reflect.TypeOf(float64(0)) {
		t.Fatalf("col 1 scan type = %v, want float64", got)
	}
}

// TestUnbufferedStreaming pins the tentpole's driver claim: rows are
// served from a live cursor, not a pre-buffered slice — the first row
// arrives while the connection keeps streaming, and a second
// connection can run statements while the first result set is open.
func TestUnbufferedStreaming(t *testing.T) {
	db, err := sql.Open("sciql", "streaming")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(4)
	mustExec(t, db, `CREATE ARRAY big (x INTEGER DIMENSION[128], y INTEGER DIMENSION[64], v FLOAT DEFAULT 1.0)`)

	rows, err := db.Query(`SELECT x, y, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// With the result set open (holding its pool connection), another
	// pool connection runs a write — impossible under the old
	// per-database statement mutex + full buffering design.
	mustExec(t, db, `UPDATE big SET v = 2.0 WHERE x = 0 AND y = 0`)
	// The open cursor still serves its pinned snapshot to the end.
	n := 1
	var sum float64
	var x, y int64
	var v float64
	if err := rows.Scan(&x, &y, &v); err != nil {
		t.Fatal(err)
	}
	sum += v
	for rows.Next() {
		if err := rows.Scan(&x, &y, &v); err != nil {
			t.Fatal(err)
		}
		sum += v
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 128*64 || sum != float64(n) {
		t.Fatalf("snapshot scan: %d rows sum %v, want %d rows sum %d (pinned pre-update version)", n, sum, 128*64, 128*64)
	}
	// A fresh query sees the committed update.
	var v2 float64
	if err := db.QueryRow(`SELECT v FROM big WHERE x = 0 AND y = 0`).Scan(&v2); err != nil {
		t.Fatal(err)
	}
	if v2 != 2.0 {
		t.Fatalf("post-update read = %v, want 2.0", v2)
	}
}

// TestConcurrentPoolQueries exercises the pool with parallel readers
// and a writer (race detector coverage for the driver path).
func TestConcurrentPoolQueries(t *testing.T) {
	db, err := sql.Open("sciql", "poolconc")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(8)
	mustExec(t, db, `CREATE ARRAY pc (x INTEGER DIMENSION[64], y INTEGER DIMENSION[64], v FLOAT DEFAULT 1.0)`)
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if r == 0 {
					if _, err := db.Exec(`UPDATE pc SET v = v + 1 WHERE x = 1 AND y = 1`); err != nil {
						errs <- err
						return
					}
					continue
				}
				var n int
				if err := db.QueryRow(`SELECT COUNT(*) FROM pc WHERE v > 0`).Scan(&n); err != nil {
					errs <- err
					return
				}
				if n != 64*64 {
					errs <- fmt.Errorf("count = %d, want %d", n, 64*64)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRawBeginDoesNotLeakTx: a BEGIN issued as plain SQL through the
// pool is rolled back when the connection returns to the pool
// (ResetSession), so later writes on pooled connections are never
// silently swallowed by a zombie transaction.
func TestRawBeginDoesNotLeakTx(t *testing.T) {
	db, err := sql.Open("sciql", "rawbegin")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // force every statement onto the same conn
	mustExec(t, db, `CREATE ARRAY rb (x INTEGER DIMENSION[2], v FLOAT DEFAULT 0.0)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `UPDATE rb SET v = 5.0`)
	// The update must be visible to a fresh reader: either it ran
	// autocommit (the BEGIN was reset with the pooled conn) or not at
	// all — never held hostage by an unreachable open transaction.
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM rb WHERE v = 5.0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("write after raw BEGIN invisible (zombie tx): %d rows, want 2", n)
	}
	// ReadOnly transactions are refused, not silently writable.
	if _, err := db.BeginTx(context.Background(), &sql.TxOptions{ReadOnly: true}); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("BeginTx(ReadOnly) error = %v, want refusal", err)
	}
}

// TestScanEveryTypeWithNulls reads every column type — NULLs included —
// through database/sql: the driver hands out typed slots of the
// cursor's column batch (int64, float64, string, bool, time.Time, nil),
// as a streamed scan and as a materialized result.
func TestScanEveryTypeWithNulls(t *testing.T) {
	db, err := sql.Open("sciql", "alltypes")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE ARRAY at (k INTEGER DIMENSION[3], i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN, ts TIMESTAMP)`)
	mustExec(t, db, `UPDATE at SET i = k * 10, f = k + 0.5, s = 'row', b = true, ts = TIMESTAMP '2011-03-21 10:00:00' WHERE k < 2`)
	mustExec(t, db, `UPDATE at SET i = 7 WHERE k = 2`) // live, every other attribute NULL
	when := time.Date(2011, 3, 21, 10, 0, 0, 0, time.UTC)
	for _, q := range []string{
		`SELECT k, i, f, s, b, ts FROM at`,            // streamed column batches
		`SELECT k, i, f, s, b, ts FROM at ORDER BY k`, // materialized dataset
	} {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); rows.Next(); k++ {
			var (
				gotK int64
				i    sql.NullInt64
				f    sql.NullFloat64
				s    sql.NullString
				b    sql.NullBool
				ts   sql.NullTime
			)
			if err := rows.Scan(&gotK, &i, &f, &s, &b, &ts); err != nil {
				t.Fatalf("%s: row %d: %v", q, k, err)
			}
			full := k < 2
			if gotK != k || !i.Valid || f.Valid != full || s.Valid != full || b.Valid != full || ts.Valid != full {
				t.Fatalf("%s: row %d: validity k=%d i=%v f=%v s=%v b=%v ts=%v", q, k, gotK, i, f, s, b, ts)
			}
			if full && (i.Int64 != k*10 || f.Float64 != float64(k)+0.5 || s.String != "row" || !b.Bool || !ts.Time.Equal(when)) {
				t.Fatalf("%s: row %d: values i=%v f=%v s=%v b=%v ts=%v", q, k, i, f, s, b, ts)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}
	// Typed Go destinations straight from the slots, and raw interfaces.
	var i int64
	var f float64
	var s string
	var b bool
	var ts time.Time
	if err := db.QueryRow(`SELECT i, f, s, b, ts FROM at WHERE k = 1`).Scan(&i, &f, &s, &b, &ts); err != nil {
		t.Fatal(err)
	}
	if i != 10 || f != 1.5 || s != "row" || !b || !ts.Equal(when) {
		t.Fatalf("typed scan: %v %v %q %v %v", i, f, s, b, ts)
	}
	var raw [5]any
	if err := db.QueryRow(`SELECT i, f, s, b, ts FROM at WHERE k = 2`).Scan(&raw[0], &raw[1], &raw[2], &raw[3], &raw[4]); err != nil {
		t.Fatal(err)
	}
	if raw != [5]any{int64(7), nil, nil, nil, nil} {
		t.Fatalf("raw scan of the NULL row: %#v", raw)
	}
}
