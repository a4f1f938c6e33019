package exec

import (
	"context"
	"testing"

	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// TestDDLInvalidatesPlanCache: a SELECT planned before its array
// exists memoizes "not parallel-eligible" per AST node; DDL must
// invalidate that decision so the same (cached or prepared) statement
// replans against the new schema.
func TestDDLInvalidatesPlanCache(t *testing.T) {
	e := New()
	e.SetParallelism(4)
	stmt, err := parser.ParseOne(`SELECT v FROM m WHERE v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*ast.Select)
	if got := e.selectDecision(sel).par; got != 1 {
		t.Fatalf("unknown array: par = %d, want 1", got)
	}
	ddl, err := parser.ParseOne(`CREATE ARRAY m (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ddl, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.selectDecision(sel).par; got != 4 {
		t.Fatalf("after CREATE: par = %d, want 4 (stale plan decision survived DDL)", got)
	}
}

// TestCursorNextIsDerivedFromBatches: Next walks the rows of the
// batches NextBatch hands out — across batch boundaries, in order — and
// boxes each into the cursor's one row buffer.
func TestCursorNextIsDerivedFromBatches(t *testing.T) {
	e := New()
	for _, sql := range []string{
		`CREATE ARRAY m (x INTEGER DIMENSION[10000], v FLOAT DEFAULT 0.0)`,
		`UPDATE m SET v = x * 2`,
	} {
		stmt, err := parser.ParseOne(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := parser.ParseOne(`SELECT x, v FROM m WHERE x >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := e.QueryStream(context.Background(), stmt.(*ast.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next()
	if err != nil || first == nil {
		t.Fatalf("first row: %v, %v", first, err)
	}
	batches := 1
	for n := int64(6); ; n++ {
		held := cur.batch
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			if n != 10000 || batches < 3 {
				t.Fatalf("stream ended after x = %d in %d batches", n-1, batches)
			}
			break
		}
		if &row[0] != &first[0] {
			t.Fatal("Next allocated a fresh row")
		}
		if row[0].I != n || row[1].F != float64(2*n) {
			t.Fatalf("row = %v, want x = %d", row, n)
		}
		if len(held.Vecs) > 0 && held.Vecs[0] != cur.batch.Vecs[0] {
			batches++
		}
	}
}
