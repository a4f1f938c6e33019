package sciql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// snapDB builds the shared database of the concurrency suite: an
// 8192-cell array (past the parallel-scan gate) whose every cell
// carries the "version" the last committed writer stamped.
func snapDB(t *testing.T, par int) *DB {
	t.Helper()
	db := Open()
	db.Parallelism(par)
	db.MustExec(`CREATE ARRAY m (x INTEGER DIMENSION[128], y INTEGER DIMENSION[64], v FLOAT DEFAULT 0.0)`)
	return db
}

// TestSnapshotIdentityUnderConcurrentWrites is the isolation suite:
// N reader goroutines stream Rows while a writer commits versions in
// explicit transactions (plus DDL churn on an unrelated array). Every
// reader must observe exactly one version — all rows byte-identical
// to a serial scan of that version — at parallelism 1 and 4.
func TestSnapshotIdentityUnderConcurrentWrites(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			db := snapDB(t, par)
			const (
				readers  = 4
				versions = 6
				rows     = 128 * 64
			)
			// serial[k] is the rendered result of a serial scan at
			// version k, computed up front on a quiesced database: the
			// reference every concurrent read must be byte-identical to.
			serial := make([]string, versions+1)
			for k := 0; k <= versions; k++ {
				db.MustExec(fmt.Sprintf(`UPDATE m SET v = %d`, k))
				serial[k] = db.MustQuery(`SELECT x, y, v FROM m`).String()
			}
			db.MustExec(`UPDATE m SET v = 0`)

			var wg sync.WaitGroup
			var stop atomic.Bool
			errs := make(chan error, readers+1)

			// Writer: stamps versions 1..versions inside explicit
			// transactions, with DDL committing between them so the
			// catalog version churns under the readers' plan caches.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				wconn, err := db.Conn(context.Background())
				if err != nil {
					errs <- err
					return
				}
				defer wconn.Close()
				for k := 1; k <= versions; k++ {
					tx, err := wconn.Begin()
					if err != nil {
						errs <- err
						return
					}
					if _, err := tx.Exec(fmt.Sprintf(`UPDATE m SET v = %d`, k)); err != nil {
						errs <- err
						return
					}
					if err := tx.Commit(); err != nil {
						errs <- err
						return
					}
					ddl := fmt.Sprintf(`CREATE ARRAY churn%d (x INTEGER DIMENSION[2], w FLOAT DEFAULT 0.0)`, k)
					if _, err := wconn.Exec(ddl); err != nil {
						errs <- err
						return
					}
					if _, err := wconn.Exec(fmt.Sprintf(`DROP ARRAY churn%d`, k)); err != nil {
						errs <- err
						return
					}
				}
			}()

			// Readers: stream full scans on private connections until
			// the writer finishes; every drained cursor must match one
			// serial reference exactly.
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := db.Conn(context.Background())
					if err != nil {
						errs <- err
						return
					}
					defer conn.Close()
					for !stop.Load() {
						rws, err := conn.QueryContext(context.Background(), `SELECT x, y, v FROM m`)
						if err != nil {
							errs <- err
							return
						}
						got, err := rws.materialize()
						if err != nil {
							errs <- err
							return
						}
						if got.NumRows() != rows {
							errs <- fmt.Errorf("scan saw %d rows, want %d", got.NumRows(), rows)
							return
						}
						rendered := got.String()
						matched := false
						for k := 0; k <= versions; k++ {
							if rendered == serial[k] {
								matched = true
								break
							}
						}
						if !matched {
							errs <- fmt.Errorf("reader saw a torn snapshot (no version matches):\n%.200s", rendered)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentCursorsInterleave pins the tentpole's "no shared
// statement mutex" claim structurally: two connections hold open
// streaming cursors at once and alternate Next calls — under any
// per-database statement lock this interleaving would deadlock (the
// first cursor would pin the engine until Close).
func TestConcurrentCursorsInterleave(t *testing.T) {
	db := snapDB(t, 1)
	c1, _ := db.Conn(context.Background())
	c2, _ := db.Conn(context.Background())
	defer c1.Close()
	defer c2.Close()
	r1, err := c1.QueryContext(context.Background(), `SELECT x, y, v FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := c2.QueryContext(context.Background(), `SELECT x, y, v FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for i := 0; i < 100; i++ {
		if !r1.Next() {
			t.Fatalf("cursor 1 ended early at %d: %v", i, r1.Err())
		}
		if !r2.Next() {
			t.Fatalf("cursor 2 ended early at %d: %v", i, r2.Err())
		}
	}
}

// TestOpenCursorDrainsPreWriteValues: a streaming cursor's batches are
// zero-copy views of the stored columns, so a cursor opened before an
// UPDATE of the very cells it reads must keep serving the values it was
// opened on while the UPDATE runs and commits beside it (writes build a
// new store version; nothing is written through a view). Under -race
// the concurrent drain and write also vet that no memory is shared
// between them.
func TestOpenCursorDrainsPreWriteValues(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, vec := range []bool{true, false} {
			db := snapDB(t, par)
			db.Vectorize(vec)
			db.MustExec(`UPDATE m SET v = x * 64 + y`)
			for _, q := range []string{`SELECT x, y, v FROM m`, `SELECT v, v + 1 FROM m WHERE MOD(y, 3) <> 1`} {
				want := renderResult(db.MustQuery(q))
				rows, err := db.QueryContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				// The first row is out (and its batch of views built)
				// before the write starts; the rest drains beside it.
				if !rows.Next() {
					t.Fatalf("no first row: %v", rows.Err())
				}
				first := make([]string, 0, 3)
				for _, v := range rows.Values() {
					first = append(first, v.String())
				}
				wrote := make(chan error, 1)
				go func() {
					_, err := db.ExecContext(context.Background(), `UPDATE m SET v = -1 - v`)
					wrote <- err
				}()
				got := append([]string{strings.Join(first, "|")}, drainRows(t, rows)...)
				if err := <-wrote; err != nil {
					t.Fatal(err)
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("par=%d vec=%v %s: cursor opened before the UPDATE saw written values", par, vec, q)
				}
				db.MustExec(`UPDATE m SET v = -1 - v`) // back to x*64+y
			}
			if got := db.MustQuery(`SELECT MIN(v), MAX(v) FROM m`).String(); !strings.Contains(got, "8191") {
				t.Errorf("par=%d vec=%v: writes did not land:\n%s", par, vec, got)
			}
		}
	}
}

// TestTxSnapshotSemantics drives the native transaction API: reads
// pinned at BEGIN, reads-own-writes, invisibility before commit,
// rollback, and SQL-level BEGIN/COMMIT statements.
func TestTxSnapshotSemantics(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY a (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)
	c1, _ := db.Conn(context.Background())
	c2, _ := db.Conn(context.Background())
	defer c1.Close()
	defer c2.Close()

	sum := func(rs *Result) float64 {
		var s float64
		for r := 0; r < rs.NumRows(); r++ {
			s += rs.Get(r, 0).AsFloat()
		}
		return s
	}

	tx, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE a SET v = 1.0`); err != nil {
		t.Fatal(err)
	}
	// Reads-own-writes inside the tx.
	rs, err := tx.Query(`SELECT v FROM a`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(rs); got != 4 {
		t.Fatalf("tx read-own-writes sum = %v, want 4", got)
	}
	// Invisible to the other connection.
	rs, err = c2.Query(`SELECT v FROM a`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(rs); got != 0 {
		t.Fatalf("uncommitted write visible on c2: sum = %v", got)
	}
	// c2 commits a write to a DIFFERENT array concurrently; the open
	// tx still reads its pinned snapshot afterwards.
	if _, err := c2.Exec(`CREATE ARRAY other (x INTEGER DIMENSION[2], w FLOAT DEFAULT 5.0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query(`SELECT w FROM other`); err == nil {
		t.Fatal("tx saw an array created after its snapshot was pinned")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rs, _ = c2.Query(`SELECT v FROM a`)
	if got := sum(rs); got != 4 {
		t.Fatalf("committed tx write lost: sum = %v", got)
	}

	// Rollback via SQL statements on the connection.
	if _, err := c1.Exec(`BEGIN; UPDATE a SET v = 9.0; ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	rs, _ = c1.Query(`SELECT v FROM a`)
	if got := sum(rs); got != 4 {
		t.Fatalf("SQL ROLLBACK leaked: sum = %v", got)
	}
	if c1.InTx() {
		t.Fatal("connection still in a transaction after ROLLBACK")
	}
}

// TestTxFirstCommitterWins: two native transactions update the same
// array; the second Commit fails with ErrTxConflict and its writes
// are discarded.
func TestTxFirstCommitterWins(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY a (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)
	c1, _ := db.Conn(context.Background())
	c2, _ := db.Conn(context.Background())
	defer c1.Close()
	defer c2.Close()
	tx1, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec(`UPDATE a SET v = 1.0`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`UPDATE a SET v = 2.0`); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("second committer error = %v, want ErrTxConflict", err)
	}
	rs := db.MustQuery(`SELECT v FROM a WHERE x = 0`)
	if got := rs.Get(0, 0).AsFloat(); got != 1 {
		t.Fatalf("surviving value = %v, want 1 (first committer)", got)
	}
}

// TestStaleStatementReResolves is the plan-cache invalidation bugfix:
// a statement prepared on one connection must re-resolve after
// another connection's DDL drops and retypes the array it scans,
// instead of executing stale bindings.
func TestStaleStatementReResolves(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY s (x INTEGER DIMENSION[4], v FLOAT DEFAULT 1.5)`)
	c1, _ := db.Conn(context.Background())
	c2, _ := db.Conn(context.Background())
	defer c1.Close()
	defer c2.Close()

	ps, err := c1.Prepare(`SELECT x, v FROM s WHERE v > 0`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	rs, err := ps.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 4 || rs.Cols[1].Typ.String() != "FLOAT" {
		t.Fatalf("pre-DDL: rows=%d type=%s", rs.NumRows(), rs.Cols[1].Typ)
	}

	// c2 drops and recreates s with an INTEGER v and different bounds.
	if _, err := c2.Exec(`DROP ARRAY s`); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec(`CREATE ARRAY s (x INTEGER DIMENSION[2], v INTEGER DEFAULT 7)`); err != nil {
		t.Fatal(err)
	}

	rs, err = ps.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 2 || rs.Cols[1].Typ.String() != "INTEGER" {
		t.Fatalf("post-DDL prepared statement did not re-resolve: rows=%d type=%s", rs.NumRows(), rs.Cols[1].Typ)
	}
	if got := rs.Get(0, 1).AsInt(); got != 7 {
		t.Fatalf("post-DDL value = %d, want 7", got)
	}

	// Dropping the array entirely turns execution into a clear error,
	// not a scan of stale bindings.
	if _, err := c2.Exec(`DROP ARRAY s`); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Query(); err == nil || !strings.Contains(err.Error(), "no such") {
		t.Fatalf("prepared statement against dropped array: err = %v, want no-such", err)
	}
}

// TestRowsColumnTypeNames pins the cursor's type metadata (the
// database/sql driver builds ColumnTypes on it).
func TestRowsColumnTypeNames(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY ty (x INTEGER DIMENSION[2], v FLOAT DEFAULT 0.5)`)
	rows, err := db.QueryContext(context.Background(), `SELECT x, v FROM ty`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := rows.ColumnTypeNames()
	want := []string{"INTEGER", "FLOAT"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ColumnTypeNames = %v, want %v", got, want)
	}
}

// TestConnClosedAndTxDone pins the lifecycle errors.
func TestConnClosedAndTxDone(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY lc (x INTEGER DIMENSION[2], v FLOAT DEFAULT 0.0)`)
	c, _ := db.Conn(context.Background())
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit after Rollback should fail")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT v FROM lc`); err == nil {
		t.Fatal("query on closed connection should fail")
	}
	// Close is idempotent, and Close rolls an open tx back.
	c2, _ := db.Conn(context.Background())
	if _, err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareErrorClasses: what a protocol front end reports when
// Prepare fails — 42601 for a text the parser refuses (message
// unchanged, and no statement-cache miss counted for it), the generic
// class for anything else, such as a closed connection.
func TestPrepareErrorClasses(t *testing.T) {
	db := Open()
	c, _ := db.Conn(context.Background())
	before := db.Metrics()["stmt_cache_miss_total"]
	_, err := c.Prepare(`SELEKT 1`)
	if SQLState(err) != SQLStateSyntaxError || !strings.HasPrefix(err.Error(), "line 1:") {
		t.Fatalf("parse error: state %s, err %v", SQLState(err), err)
	}
	if _, err := db.Exec(`SELEKT 1`); SQLState(err) != SQLStateSyntaxError {
		t.Fatalf("Exec of a parse error: state %s, err %v", SQLState(err), err)
	}
	if d := db.Metrics()["stmt_cache_miss_total"] - before; d != 0 {
		t.Fatalf("two texts that do not parse counted %d statement-cache misses", d)
	}
	c.Close()
	if _, err := c.Prepare(`SELECT 1`); SQLState(err) != SQLStateGeneric {
		t.Fatalf("Prepare on a closed connection: state %s, err %v", SQLState(err), err)
	}
}

// TestTxStatementAtomicity: a statement that fails mid-execution
// inside a transaction leaves no partial effects — earlier statements
// of the same transaction survive, and COMMIT publishes only them.
func TestTxStatementAtomicity(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY sa (x INTEGER DIMENSION[4], v FLOAT DEFAULT 1.0)`)
	c, _ := db.Conn(context.Background())
	defer c.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE sa SET v = 2.0`); err != nil {
		t.Fatal(err)
	}
	// CASE arms evaluate lazily: x=0,1 take the constant branch and
	// are written before x=2 hits the unknown function and errors.
	if _, err := tx.Exec(`UPDATE sa SET v = CASE WHEN x < 2 THEN 100.0 ELSE NOSUCHFN(v) END`); err == nil {
		t.Fatal("expected the partial UPDATE to fail")
	}
	// The failed statement rolled back entirely; the first statement's
	// effect is intact inside the transaction.
	rs, err := tx.Query(`SELECT v FROM sa`)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rs.NumRows(); r++ {
		if got := rs.Get(r, 0).AsFloat(); got != 2.0 {
			t.Fatalf("row %d inside tx = %v, want 2.0 (failed statement leaked)", r, got)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rs = db.MustQuery(`SELECT v FROM sa`)
	for r := 0; r < rs.NumRows(); r++ {
		if got := rs.Get(r, 0).AsFloat(); got != 2.0 {
			t.Fatalf("row %d after commit = %v, want 2.0", r, got)
		}
	}
}

// TestContextualTxKeywords: TRANSACTION and WORK are contextual, not
// reserved — columns may carry those names while BEGIN WORK / START
// TRANSACTION still parse.
func TestContextualTxKeywords(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY jobs (x INTEGER DIMENSION[2], work FLOAT DEFAULT 1.5, transaction FLOAT DEFAULT 2.5)`)
	rs := db.MustQuery(`SELECT work, transaction FROM jobs WHERE work > 0`)
	if rs.NumRows() != 2 || rs.Get(0, 1).AsFloat() != 2.5 {
		t.Fatalf("contextual-keyword columns broken: %v rows", rs.NumRows())
	}
	c, _ := db.Conn(context.Background())
	defer c.Close()
	if _, err := c.Exec(`BEGIN WORK; UPDATE jobs SET work = 9.0; COMMIT WORK`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`START TRANSACTION; UPDATE jobs SET transaction = 9.0; ROLLBACK WORK`); err != nil {
		t.Fatal(err)
	}
	rs = db.MustQuery(`SELECT work, transaction FROM jobs`)
	if rs.Get(0, 0).AsFloat() != 9.0 || rs.Get(0, 1).AsFloat() != 2.5 {
		t.Fatalf("tx forms misbehaved: work=%v transaction=%v", rs.Get(0, 0), rs.Get(0, 1))
	}
}
