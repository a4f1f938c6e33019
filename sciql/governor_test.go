package sciql

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// setupGovernorDB builds an array big enough that scans do real work
// (chunked loops, measurable memory) without slowing the suite down.
func setupGovernorDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE ARRAY gmatrix (x INTEGER DIMENSION[128], y INTEGER DIMENSION[128], v FLOAT DEFAULT 0.0);
		UPDATE gmatrix SET v = x * 131 + y;
	`)
	return db
}

const govQuery = `SELECT x, y, v FROM gmatrix WHERE v > 100`

func TestMemoryBudgetAbort(t *testing.T) {
	db := setupGovernorDB(t)
	want := db.MustQuery(govQuery)

	// A 1 KiB per-query budget cannot hold a 16K-cell result.
	db.SetMemoryLimit(1<<10, 0)
	if _, err := db.Query(govQuery); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("per-query limit: err = %v, want ErrMemoryBudget", err)
	}
	if got := db.Metrics()["mem_budget_aborts_total"]; got < 1 {
		t.Errorf("mem_budget_aborts_total = %d, want >= 1", got)
	}
	if got := pinned(db); got != 0 {
		t.Errorf("after budget abort: snapshots_pinned = %d, want 0", got)
	}
	if got := db.Metrics()["mem_in_use_bytes"]; got != 0 {
		t.Errorf("after budget abort: mem_in_use_bytes = %d, want 0", got)
	}

	// The total (cross-query) limit trips the same way.
	db.SetMemoryLimit(0, 1<<10)
	if _, err := db.Query(govQuery); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("total limit: err = %v, want ErrMemoryBudget", err)
	}

	// Disarming restores normal execution with identical results.
	db.SetMemoryLimit(0, 0)
	got, err := db.Query(govQuery)
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	if got.String() != want.String() {
		t.Error("result after budget abort differs from baseline")
	}
}

func TestMemoryBudgetGenerousLimitPasses(t *testing.T) {
	db := setupGovernorDB(t)
	want := db.MustQuery(govQuery)
	// A generous limit must not change results: accounting is armed
	// (mem_in_use_bytes moves) but nothing aborts.
	db.SetMemoryLimit(1<<30, 1<<30)
	for _, vec := range []bool{true, false} {
		db.Vectorize(vec)
		got, err := db.Query(govQuery)
		if err != nil {
			t.Fatalf("vec=%v: %v", vec, err)
		}
		if got.String() != want.String() {
			t.Errorf("vec=%v: governed result differs from baseline", vec)
		}
	}
	if got := db.Metrics()["mem_in_use_bytes"]; got != 0 {
		t.Errorf("idle mem_in_use_bytes = %d, want 0", got)
	}
}

func TestStatementTimeout(t *testing.T) {
	db := setupGovernorDB(t)
	db.SetStatementTimeout(time.Nanosecond)
	if _, err := db.Query(govQuery); !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("err = %v, want ErrStatementTimeout", err)
	}
	if got := db.Metrics()["queries_timed_out_total"]; got < 1 {
		t.Errorf("queries_timed_out_total = %d, want >= 1", got)
	}
	if got := pinned(db); got != 0 {
		t.Errorf("after timeout: snapshots_pinned = %d, want 0", got)
	}

	// Disarming restores normal execution.
	db.SetStatementTimeout(0)
	if _, err := db.Query(govQuery); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestStatementTimeoutCoversCursorLifetime(t *testing.T) {
	db := setupGovernorDB(t)
	db.SetStatementTimeout(30 * time.Millisecond)
	rows, err := db.QueryContext(context.Background(), govQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	rows.Next()
	// A client sitting on an open cursor past the deadline gets the
	// timeout on its next pull.
	time.Sleep(120 * time.Millisecond)
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("cursor err = %v, want ErrStatementTimeout", err)
	}
	rows.Close()
	if got := pinned(db); got != 0 {
		t.Errorf("after cursor timeout: snapshots_pinned = %d, want 0", got)
	}
}

func TestCallerCancelIsNotStatementTimeout(t *testing.T) {
	db := setupGovernorDB(t)
	// Generous statement timeout armed: caller cancellation must still
	// surface as context.Canceled, never ErrStatementTimeout.
	db.SetStatementTimeout(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, govQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	cancel()
	for rows.Next() {
	}
	err = rows.Err()
	rows.Close()
	if err == nil {
		t.Fatal("expected an error after caller cancellation")
	}
	if errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("caller cancellation surfaced as ErrStatementTimeout: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	db := setupGovernorDB(t)
	db.SetMaxConcurrentQueries(1)
	db.SetAdmissionQueue(0, 0) // no queue: reject immediately

	// An open cursor holds the single slot until Close.
	rows, err := db.QueryContext(context.Background(), govQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if _, err := db.Query(govQuery); !errors.Is(err, ErrAdmission) {
		t.Fatalf("second query: err = %v, want ErrAdmission", err)
	}
	m := db.Metrics()
	if m["queries_admitted_total"] < 1 {
		t.Errorf("queries_admitted_total = %d, want >= 1", m["queries_admitted_total"])
	}
	if m["queries_rejected_total"] < 1 {
		t.Errorf("queries_rejected_total = %d, want >= 1", m["queries_rejected_total"])
	}
	rows.Close()
	if _, err := db.Query(govQuery); err != nil {
		t.Fatalf("after Close: %v", err)
	}

	// With a wait queue, a blocked statement is admitted when the slot
	// frees instead of being rejected.
	db.SetAdmissionQueue(4, 2*time.Second)
	rows, err = db.QueryContext(context.Background(), govQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(govQuery)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the second query queue
	rows.Close()
	if err := <-done; err != nil {
		t.Fatalf("queued query: %v", err)
	}
}

func TestAdmissionSlotFreedByAbandonedCursorTeardown(t *testing.T) {
	db := setupGovernorDB(t)
	db.SetMaxConcurrentQueries(1)
	db.SetAdmissionQueue(0, 0)
	rows, err := db.QueryContext(context.Background(), govQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	// Abandon the cursor without Close; DB.Close drains the cursor
	// ledgers, which must free the admission slot too.
	_ = rows
	db.Close()
	if _, err := db.Query(govQuery); err != nil {
		t.Fatalf("after teardown of abandoned cursor: %v", err)
	}
	if got := pinned(db); got != 0 {
		t.Errorf("snapshots_pinned = %d, want 0", got)
	}
}

func TestDrain(t *testing.T) {
	db := setupGovernorDB(t)
	db.SetMaxConcurrentQueries(2)

	// Drain with an in-flight cursor and an expired context times out.
	rows, err := db.QueryContext(context.Background(), govQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	if err := db.Drain(ctx); err == nil {
		t.Error("Drain with an open cursor returned before the cursor closed")
	}
	cancel()

	// Once the cursor closes, Drain completes, and the database stays
	// in shutdown mode: new statements bounce with ErrAdmission.
	rows.Close()
	if err := db.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after close: %v", err)
	}
	if _, err := db.Query(govQuery); !errors.Is(err, ErrAdmission) {
		t.Fatalf("query after Drain: err = %v, want ErrAdmission", err)
	}
}

func TestPanicContainment(t *testing.T) {
	db := setupGovernorDB(t)
	db.RegisterExternal("boom", func(args []Value) (Value, error) {
		panic("kaboom in external function")
	})
	db.MustExec(`CREATE FUNCTION boom (v FLOAT) RETURNS FLOAT EXTERNAL NAME 'boom'`)

	const q = `SELECT boom(v) FROM gmatrix`
	_, err := db.Query(q)
	if err == nil {
		t.Fatal("panicking query returned no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Query, "boom") {
		t.Errorf("PanicError.Query = %q, want the statement text", pe.Query)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
	if got := db.Metrics()["queries_panicked_total"]; got < 1 {
		t.Errorf("queries_panicked_total = %d, want >= 1", got)
	}
	if got := pinned(db); got != 0 {
		t.Errorf("after contained panic: snapshots_pinned = %d, want 0", got)
	}

	// The database is fully usable afterwards: same session model, new
	// statements, even the same crashing statement again.
	if rs := db.MustQuery(govQuery); rs.NumRows() == 0 {
		t.Error("healthy query after panic returned no rows")
	}
	if _, err := db.Query(q); err == nil {
		t.Error("second panicking query returned no error")
	}

	// An explicit connection survives a contained panic too.
	c, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.QueryContext(context.Background(), q); err == nil {
		t.Error("conn: panicking query returned no error")
	}
	rows, err := c.QueryContext(context.Background(), govQuery)
	if err != nil {
		t.Fatalf("conn after panic: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("conn after panic: %v", err)
	}
	rows.Close()
	if n == 0 {
		t.Error("conn after panic: no rows")
	}
}

// TestMemoryBudgetCoversTiling: what structural grouping keeps beside
// its FROM scan — the window over the tiled array and one aggregate
// state per anchor — is charged to the statement budget.
func TestMemoryBudgetCoversTiling(t *testing.T) {
	db := setupGovernorDB(t)
	for _, tc := range []struct {
		name, q string
		limit   int64
	}{
		// Four anchors, but their tiles read the whole 16K-cell array.
		{"window", `SELECT [x], [y], SUM(v) FROM gmatrix[0:2][0:2] GROUP BY gmatrix[x:x+64][y:y+64]`, 64 << 10},
		// The FROM scan is the window here (384 KiB); 16K anchors of two
		// aggregates need another few MiB of states.
		{"states", `SELECT [x], [y], SUM(v), MAX(v) FROM gmatrix GROUP BY gmatrix[x][y]`, 1 << 20},
	} {
		db.SetMemoryLimit(0, 0)
		want := db.MustQuery(tc.q).String()
		db.SetMemoryLimit(tc.limit, 0)
		if _, err := db.Query(tc.q); !errors.Is(err, ErrMemoryBudget) {
			t.Errorf("%s: err = %v, want ErrMemoryBudget", tc.name, err)
		}
		if got := db.Metrics()["mem_in_use_bytes"]; got != 0 {
			t.Errorf("%s: after budget abort: mem_in_use_bytes = %d, want 0", tc.name, got)
		}
		db.SetMemoryLimit(1<<30, 0)
		if got, err := db.Query(tc.q); err != nil || got.String() != want {
			t.Errorf("%s: under a generous limit: err = %v, same result = %v", tc.name, err, err == nil && got.String() == want)
		}
	}
}

// TestStatementTimeoutCancelsTiling: the anchor loop polls the
// statement context, so a deadline that passes while a 1x1-tile
// statement is folding stops it within a morsel instead of after all
// 16K anchors. The second morsel is held past the deadline by an
// injected delay; the fold must not reach many more.
func TestStatementTimeoutCancelsTiling(t *testing.T) {
	defer faultinject.Reset()
	for _, par := range []int{1, 4} {
		db := setupGovernorDB(t)
		db.Parallelism(par)
		db.SetStatementTimeout(150 * time.Millisecond)
		faultinject.Arm("tile.fold", faultinject.Spec{Kind: faultinject.Delay, AfterN: 2, Delay: 400 * time.Millisecond})
		start := time.Now()
		_, err := db.Query(`SELECT [x], [y], SUM(v) FROM gmatrix GROUP BY gmatrix[x][y]`)
		if !errors.Is(err, ErrStatementTimeout) {
			t.Fatalf("par=%d: err = %v, want ErrStatementTimeout", par, err)
		}
		// 16K anchors are 16 morsels; the serial fold must stop at the
		// delayed one (parallel peers may finish the rest meanwhile).
		if hits := faultinject.Hits("tile.fold"); par == 1 && hits != 2 {
			t.Errorf("serial fold started %d anchor morsels, want 2: the deadline passed in the second", hits)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("par=%d: canceled tiling took %v", par, d)
		}
		if got := pinned(db); got != 0 {
			t.Errorf("par=%d: after timeout: snapshots_pinned = %d, want 0", par, got)
		}
	}
}

// setupBigUpdateDB builds the 1 M-cell array the DML governance tests
// update: 256 scan batches, 8 MiB of one attribute.
func setupBigUpdateDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE ARRAY gbig (x INTEGER DIMENSION[1024], y INTEGER DIMENSION[1024], v FLOAT DEFAULT 0.0);
		UPDATE gbig SET v = MOD(x * 31 + y, 1000);
	`)
	return db
}

const (
	bigUpdate = `UPDATE gbig SET v = v + 1`
	bigSum    = `SELECT SUM(v), COUNT(*) FROM gbig`
)

// TestStatementTimeoutCancelsUpdate: DML polls the statement context
// once per batch. With every scatter delayed, the deadline passes a few
// batches into a 256-batch UPDATE; the statement stops at the next
// batch, and the published version is what it was.
func TestStatementTimeoutCancelsUpdate(t *testing.T) {
	defer faultinject.Reset()
	db := setupBigUpdateDB(t)
	want := db.MustQuery(bigSum).String()
	version := db.Metrics()["catalog_version"]
	scanned := db.Metrics()["scan_cells_total"]

	faultinject.Arm("dml.scatter", faultinject.Spec{Kind: faultinject.Delay, Delay: 10 * time.Millisecond})
	db.SetStatementTimeout(45 * time.Millisecond)
	if _, err := db.Exec(bigUpdate); !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("err = %v, want ErrStatementTimeout", err)
	}
	faultinject.Disarm("dml.scatter")
	db.SetStatementTimeout(0)
	if cells := db.Metrics()["scan_cells_total"] - scanned; cells == 0 || cells > 16*4096 {
		t.Errorf("the UPDATE scanned %d cells before stopping, want a few batches of 4096", cells)
	}
	if got := db.Metrics()["catalog_version"]; got != version {
		t.Errorf("catalog_version moved from %d to %d under a timed-out UPDATE", version, got)
	}
	if got := db.MustQuery(bigSum).String(); got != want {
		t.Errorf("published array changed under a timed-out UPDATE:\n%s\nwant:\n%s", got, want)
	}
	if got := pinned(db); got != 0 {
		t.Errorf("snapshots_pinned = %d, want 0", got)
	}
	db.MustExec(bigUpdate)
	if got := db.MustQuery(bigSum).String(); got == want {
		t.Error("the UPDATE after disarming changed nothing")
	}
}

// TestMemoryBudgetCoversDML: the segments a write privatizes and its
// scatter buffers are charged to the statement. A whole-array UPDATE
// copies every segment of the attribute, 8 MiB here; under a 1 MiB
// budget it aborts with the published version untouched, while a small
// UPDATE, which copies a few segments, passes.
func TestMemoryBudgetCoversDML(t *testing.T) {
	db := setupBigUpdateDB(t)
	want := db.MustQuery(bigSum).String()
	db.SetMemoryLimit(1<<20, 0)
	if _, err := db.Exec(bigUpdate); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if got := db.Metrics()["mem_in_use_bytes"]; got != 0 {
		t.Errorf("after budget abort: mem_in_use_bytes = %d, want 0", got)
	}
	if _, err := db.Exec(`UPDATE gbig SET v = v + 1 WHERE x >= 8 AND x < 16 AND y < 64`); err != nil {
		t.Fatalf("512-cell UPDATE under a 1 MiB budget: %v", err)
	}
	db.MustExec(`UPDATE gbig SET v = v - 1 WHERE x >= 8 AND x < 16 AND y < 64`)
	db.SetMemoryLimit(0, 0)
	if got := db.MustQuery(bigSum).String(); got != want {
		t.Errorf("published array changed under an aborted UPDATE:\n%s\nwant:\n%s", got, want)
	}
	db.SetMemoryLimit(1<<30, 1<<30)
	if _, err := db.Exec(bigUpdate); err != nil {
		t.Fatalf("under a generous budget: %v", err)
	}
}
