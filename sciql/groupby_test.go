package sciql

import (
	"strings"
	"testing"
)

// groupLines renders a result as sorted "a|b|c" lines.
func groupLines(t *testing.T, db *DB, q string) string {
	t.Helper()
	rs, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return sortedLines(rs)
}

// TestGroupKeysAreTypeTagged: SQL NULL and the string 'NULL' are
// different group keys (and different DISTINCT values), on the
// materialized path (a table) and on the chunk-wise path (an array),
// interpreted and vectorized.
func TestGroupKeysAreTypeTagged(t *testing.T) {
	db := Open()
	db.MustExec(`
		CREATE TABLE t (s VARCHAR, v INTEGER);
		INSERT INTO t VALUES (NULL, 2), ('NULL', 1), ('1', 3);
		CREATE ARRAY sa (i INTEGER DIMENSION[6], s VARCHAR, v INTEGER);
		UPDATE sa SET v = i + 1;
		UPDATE sa SET s = 'NULL' WHERE i = 1 OR i = 3;
		UPDATE sa SET s = '1' WHERE i = 2;
	`)
	for _, vec := range []bool{false, true} {
		db.Vectorize(vec)
		for _, par := range []int{1, 4} {
			db.Parallelism(par)
			if got, want := groupLines(t, db, `SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s`), "1|1|3\nNULL|1|1\nNULL|1|2"; got != want {
				t.Errorf("table vec=%v par=%d:\ngot:\n%s\nwant:\n%s", vec, par, got, want)
			}
			if got, want := groupLines(t, db, `SELECT s, COUNT(*), SUM(v) FROM sa GROUP BY s`), "1|1|3\nNULL|2|6\nNULL|3|12"; got != want {
				t.Errorf("array vec=%v par=%d:\ngot:\n%s\nwant:\n%s", vec, par, got, want)
			}
			for _, q := range []string{`SELECT COUNT(DISTINCT s) FROM t`, `SELECT COUNT(DISTINCT s) FROM sa`} {
				if got := groupLines(t, db, q); got != "2" {
					t.Errorf("%s vec=%v par=%d: got %s, want 2", q, vec, par, got)
				}
			}
		}
	}
}

// TestFloatGroupKeysGroupAsPrinted pins how float keys group: -0.0 and
// 0.0 are two groups (they print as -0 and 0), every NaN is one group,
// and NULL is its own — on both paths, with the key a bare column
// (the raw-bits probe) and inside a key tuple (the encoded probe).
func TestFloatGroupKeysGroupAsPrinted(t *testing.T) {
	db := Open()
	db.MustExec(`
		CREATE ARRAY f (i INTEGER DIMENSION[10], v FLOAT, w INTEGER DEFAULT 1);
		UPDATE f SET v = 0.0 WHERE i < 2;
		UPDATE f SET v = 0.0 * -1.0 WHERE i >= 2 AND i < 5;
		UPDATE f SET v = SQRT(-1.0 - i) WHERE i >= 5 AND i < 8;
		UPDATE f SET v = 2.5 WHERE i = 8;
		CREATE TABLE ft (v FLOAT, w INTEGER);
		INSERT INTO ft SELECT v, w FROM f;
	`)
	const want = "-0|3\n0|2\n2.5|1\nNULL|1\nNaN|3"
	for _, vec := range []bool{false, true} {
		db.Vectorize(vec)
		for _, q := range []string{
			`SELECT v, COUNT(*) FROM f GROUP BY v`,
			`SELECT v, COUNT(*) FROM ft GROUP BY v`,
			`SELECT v, COUNT(*) FROM f GROUP BY v, w`,
			`SELECT v, COUNT(*) FROM ft GROUP BY v, w`,
		} {
			if got := groupLines(t, db, q); got != want {
				t.Errorf("vec=%v %s:\ngot:\n%s\nwant:\n%s", vec, q, got, want)
			}
		}
	}
}

// TestDistinctAndUnionDedupeOnTypedRowKey: SELECT DISTINCT and UNION
// key whole rows like GROUP BY keys a group — NULL is not the string
// 'NULL' (at e6278ea rows were keyed by their printed form and the two
// collapsed), -0.0 and 0.0 stay two rows, every NaN is one — over
// string rows (encoded keys), float rows (word keys) and rows mixing
// the two, keeping each row's first occurrence.
func TestDistinctAndUnionDedupeOnTypedRowKey(t *testing.T) {
	db := Open()
	db.MustExec(`
		CREATE TABLE c (k VARCHAR, n INTEGER);
		INSERT INTO c VALUES ('NULL', 1), (NULL, 1), ('1', 1), ('NULL', 1), (NULL, 1), ('1', 2);
		CREATE ARRAY f (i INTEGER DIMENSION[10], v FLOAT, w INTEGER DEFAULT 1);
		UPDATE f SET v = 0.0 WHERE i < 2;
		UPDATE f SET v = 0.0 * -1.0 WHERE i >= 2 AND i < 5;
		UPDATE f SET v = SQRT(-1.0 - i) WHERE i >= 5 AND i < 8;
		UPDATE f SET v = 2.5 WHERE i = 8;
		UPDATE f SET w = NULL WHERE i = 1;
	`)
	for _, tc := range []struct{ q, want string }{
		{`SELECT DISTINCT k, n FROM c`, "1|1\n1|2\nNULL|1\nNULL|1"},
		{`SELECT k, n FROM c UNION SELECT k, n FROM c`, "1|1\n1|2\nNULL|1\nNULL|1"},
		{`SELECT DISTINCT k FROM c`, "1\nNULL\nNULL"},
		{`SELECT DISTINCT v FROM f`, "-0\n0\n2.5\nNULL\nNaN"},
		{`SELECT v FROM f UNION SELECT v FROM f`, "-0\n0\n2.5\nNULL\nNaN"},
		{`SELECT DISTINCT v, w FROM f`, "-0|1\n0|1\n0|NULL\n2.5|1\nNULL|1\nNaN|1"},
		{`SELECT DISTINCT k, v FROM c, f WHERE n = 2 OR i = 9`, "1|-0\n1|0\n1|2.5\n1|NULL\n1|NaN\nNULL|NULL\nNULL|NULL"},
	} {
		for _, vec := range []bool{false, true} {
			db.Vectorize(vec)
			if got := groupLines(t, db, tc.q); got != tc.want {
				t.Errorf("vec=%v %s:\ngot:\n%s\nwant:\n%s", vec, tc.q, got, tc.want)
			}
		}
	}
	// First occurrences, in input order.
	rs := db.MustQuery(`SELECT DISTINCT k, n FROM c`)
	if got, want := strings.Join(renderResult(rs), "\n"), "NULL|1\nNULL|1\n1|1\n1|2"; got != want {
		t.Errorf("DISTINCT must keep first occurrences in order:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
