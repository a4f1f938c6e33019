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

// TestCursorServesBatchesInOrder: NextBatch hands out the stream's
// batches in scan order, each valid until the next call, and Cell reads
// what Value boxes.
func TestCursorServesBatchesInOrder(t *testing.T) {
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
	for _, vectorized := range []bool{true, false} {
		e.SetVectorized(vectorized)
		stmt, err := parser.ParseOne(`SELECT x, v FROM m WHERE x >= 5`)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := e.QueryStream(context.Background(), stmt.(*ast.Select), nil)
		if err != nil {
			t.Fatal(err)
		}
		n, batches := int64(5), 0
		for {
			b, err := cur.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			batches++
			for r := range b.Len() {
				x, v := b.Cell(0, r), b.Cell(1, r)
				if x != CellOf(b.Value(0, r)) || v != CellOf(b.Value(1, r)) {
					t.Fatalf("vectorized=%v row %d: Cell %v %v, Value %v %v", vectorized, n, x, v, b.Value(0, r), b.Value(1, r))
				}
				if x.Null || x.N != n || v.Null || v.Float() != float64(2*n) {
					t.Fatalf("vectorized=%v: row = %v %v, want x = %d", vectorized, x, v, n)
				}
				n++
			}
		}
		if n != 10000 || batches < 3 {
			t.Fatalf("vectorized=%v: stream ended after x = %d in %d batches", vectorized, n-1, batches)
		}
		cur.Close()
	}
}
