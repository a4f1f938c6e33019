package sciql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faultinject"
)

// The fault-injection invariant suite: a fixed query set runs with
// each engine fault point armed — as an injected error and as an
// injected panic — across serial/parallel and vectorized/interpreted
// execution. Whatever fires, the engine must come back with either the
// byte-identical baseline result or a clean typed error, and never a
// wrong answer, a leaked snapshot, a leaked goroutine, or a poisoned
// session.

var faultPoints = []string{
	"catalog.commit",
	"scan.chunk",
	"join.build",
	"tile.fold",
	"pool.worker",
	"cursor.close",
	"dml.scatter",
}

const (
	faultScanQ = `SELECT x, y, v FROM fmatrix WHERE v > 300`
	faultJoinQ = `SELECT m.x, m.y, m.v, s.w FROM fmatrix AS m JOIN fside AS s ON m.x = s.t WHERE s.w > 30`
	faultTileQ = `SELECT [x], [y], AVG(v), COUNT(*) FROM fmatrix GROUP BY fmatrix[x-1:x+2][y-1:y+2]`
	faultDML   = `UPDATE fscratch SET w = w + 1`
)

// setupFaultDB builds the fixed dataset: an 80x80 scan target (big
// enough that par=4 schedules real morsels), a 1-D join side, and a
// scratch array for the DML/commit path.
func setupFaultDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE ARRAY fmatrix (x INTEGER DIMENSION[80], y INTEGER DIMENSION[80], v FLOAT DEFAULT 0.0);
		UPDATE fmatrix SET v = x * 7 + y;
		CREATE ARRAY fside (t INTEGER DIMENSION[80], w FLOAT DEFAULT 0.0);
		UPDATE fside SET w = t * 3;
		CREATE ARRAY fscratch (i INTEGER DIMENSION[8], w FLOAT DEFAULT 0.0);
	`)
	return db
}

func TestFaultInjectionInvariants(t *testing.T) {
	defer faultinject.Reset()
	base := setupFaultDB(t)
	scanWant := base.MustQuery(faultScanQ).String()
	joinWant := base.MustQuery(faultJoinQ).String()
	tileWant := base.MustQuery(faultTileQ).String()
	if scanWant == "" || joinWant == "" || tileWant == "" {
		t.Fatal("baseline queries returned no output")
	}

	kinds := []struct {
		name string
		spec faultinject.Spec
	}{
		{"error", faultinject.Spec{Kind: faultinject.Error}},
		{"panic", faultinject.Spec{Kind: faultinject.Panic}},
	}
	for _, pt := range faultPoints {
		for _, kind := range kinds {
			for _, par := range []int{1, 4} {
				for _, vec := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/par%d/vec%v", pt, kind.name, par, vec)
					t.Run(name, func(t *testing.T) {
						runFaultCombo(t, pt, kind.spec, par, vec, scanWant, joinWant, tileWant)
					})
				}
			}
		}
	}
}

func runFaultCombo(t *testing.T, point string, spec faultinject.Spec, par int, vec bool, scanWant, joinWant, tileWant string) {
	db := setupFaultDB(t)
	db.Parallelism(par)
	db.Vectorize(vec)
	c, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	goroutines := runtime.NumGoroutine()
	faultinject.Arm(point, spec)
	defer faultinject.Disarm(point)

	// Statement path: scan, join, tiling, DML.
	got, err := mustMaterialize(c, faultScanQ)
	checkFaultResult(t, "scan", got, err, scanWant)
	got, err = mustMaterialize(c, faultJoinQ)
	checkFaultResult(t, "join", got, err, joinWant)
	got, err = mustMaterialize(c, faultTileQ)
	checkFaultResult(t, "tile", got, err, tileWant)
	if _, err := c.ExecContext(context.Background(), faultDML); err != nil {
		checkCleanFaultErr(t, "dml", err)
	}

	// Cursor path: stream a few rows, then Close with the fault armed.
	rows, err := c.QueryContext(context.Background(), faultScanQ)
	if err != nil {
		checkCleanFaultErr(t, "cursor-open", err)
	} else {
		for i := 0; i < 3 && rows.Next(); i++ {
		}
		if err := rows.Err(); err != nil {
			checkCleanFaultErr(t, "cursor-next", err)
		}
		rows.Close()
	}

	faultinject.Disarm(point)

	// Invariants: no leaked snapshot, no leaked goroutine, and the same
	// connection still answers correctly — reads and writes both.
	if got := pinned(db); got != 0 {
		t.Errorf("snapshots_pinned = %d, want 0", got)
	}
	waitForGoroutines(t, goroutines)
	res, err := mustMaterialize(c, faultScanQ)
	if err != nil {
		t.Fatalf("conn poisoned after fault: %v", err)
	}
	if res != scanWant {
		t.Error("post-fault result differs from baseline")
	}
	if _, err := c.ExecContext(context.Background(), faultDML); err != nil {
		t.Errorf("conn write path poisoned after fault: %v", err)
	}
}

// mustMaterialize runs one streaming query to completion on the
// connection, returning the rendered result or the terminal error.
func mustMaterialize(c *Conn, q string) (string, error) {
	rows, err := c.QueryContext(context.Background(), q)
	if err != nil {
		return "", err
	}
	ds, err := rows.materialize()
	if err != nil {
		return "", err
	}
	return ds.String(), nil
}

// checkFaultResult accepts exactly two outcomes: the byte-identical
// baseline result, or a clean typed error. Anything else — a wrong
// answer, an untyped error — fails the invariant.
func checkFaultResult(t *testing.T, label string, got string, err error, want string) {
	t.Helper()
	if err != nil {
		checkCleanFaultErr(t, label, err)
		return
	}
	if got != want {
		t.Errorf("%s: result differs from baseline under armed fault", label)
	}
}

// checkCleanFaultErr requires the error to be one of the typed shapes
// an injected fault may surface as: the injected error itself or a
// contained panic.
func checkCleanFaultErr(t *testing.T, label string, err error) {
	t.Helper()
	var pe *PanicError
	if errors.Is(err, faultinject.ErrInjected) || errors.As(err, &pe) {
		return
	}
	t.Errorf("%s: fault surfaced as untyped error: %v", label, err)
}

// TestScatterFaultRollsBackToSavepoint arms dml.scatter inside a
// transaction: the statement it fails — after one of its two SET
// columns was already scattered — rolls back to its savepoint, the
// statements before it survive, and the transaction commits them.
func TestScatterFaultRollsBackToSavepoint(t *testing.T) {
	defer faultinject.Reset()
	for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Panic} {
		db := setupFaultDB(t)
		db.MustExec(`CREATE ARRAY fpair (i INTEGER DIMENSION[8], a FLOAT DEFAULT 0.0, b FLOAT DEFAULT 0.0)`)
		c, err := db.Conn(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(`UPDATE fpair SET a = i + 1`); err != nil {
			t.Fatal(err)
		}
		faultinject.Arm("dml.scatter", faultinject.Spec{Kind: kind, AfterN: 2})
		_, err = tx.Exec(`UPDATE fpair SET a = 100, b = 200`)
		faultinject.Disarm("dml.scatter")
		if err == nil {
			t.Fatal("the second scatter did not fail the statement")
		}
		checkCleanFaultErr(t, "dml", err)
		const q = `SELECT SUM(a), SUM(b) FROM fpair`
		rs, err := tx.Query(q)
		if err != nil {
			t.Fatalf("transaction poisoned after a failed statement: %v", err)
		}
		if got := numericLines(rs); got != "36|0" {
			t.Errorf("inside the transaction after the failed statement: %s, want 36|0", got)
		}
		if _, err := tx.Exec(`UPDATE fpair SET b = 1 WHERE i < 2`); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := numericLines(db.MustQuery(q)); got != "36|2" {
			t.Errorf("committed: %s, want 36|2", got)
		}
		c.Close()
	}
}
