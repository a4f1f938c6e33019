package sciql

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// joinEqDB holds small tables whose key columns cover every way `=` can
// pair two columns: FLOAT against INTEGER (with -0.0 and NULL; fn also
// holds a NaN, which `=` holds equal to every number, so a join on it
// cannot hash), VARCHAR against INTEGER, composite strings holding NUL
// bytes, timestamps, and duplicated keys on both sides. The tables
// differ in size, so joining them either way round builds on either
// input.
func joinEqDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE TABLE fa (k FLOAT, n INTEGER);
		CREATE TABLE fn (k FLOAT, n INTEGER);
		CREATE TABLE ib (k INTEGER, m INTEGER);
		CREATE TABLE sc (k VARCHAR, n INTEGER);
		CREATE TABLE s1 (p VARCHAR, q VARCHAR, n INTEGER);
		CREATE TABLE s2 (p VARCHAR, q VARCHAR, m INTEGER);
		CREATE TABLE t1 (ts TIMESTAMP, n INTEGER);
		CREATE TABLE t2 (ts TIMESTAMP, m INTEGER);
		INSERT INTO ib VALUES (0, 10), (1, 20), (1, 21), (NULL, 30), (3, 40), (3, 41), (7, 50);
		INSERT INTO sc VALUES ('1', 1), ('NULL', 2), (NULL, 3), ('1', 4), ('x', 5), ('3', 6)`)
	for i, k := range []float64{math.Copysign(0, -1), 1, 2.5, 1, 3, 0} {
		db.MustExec(`INSERT INTO fa VALUES (?k, ?n)`, Float("k", k), Int("n", int64(i)))
	}
	db.MustExec(`INSERT INTO fa VALUES (NULL, 99)`)
	db.MustExec(`INSERT INTO fn SELECT k, n FROM fa`)
	db.MustExec(`INSERT INTO fn VALUES (?k, 100)`, Float("k", math.NaN()))
	for i, pq := range [][2]string{{"x\x00", "y"}, {"x", "\x00y"}, {"x", "y"}, {"x\x00", "y"}} {
		db.MustExec(`INSERT INTO s1 VALUES (?p, ?q, ?n)`, String("p", pq[0]), String("q", pq[1]), Int("n", int64(i)))
	}
	for i, pq := range [][2]string{{"x", "\x00y"}, {"x\x00", "y"}, {"", "x\x00y"}} {
		db.MustExec(`INSERT INTO s2 VALUES (?p, ?q, ?m)`, String("p", pq[0]), String("q", pq[1]), Int("m", int64(i)))
	}
	day := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	for i, d := range []int{0, 1, 1, 2, 5} {
		db.MustExec(`INSERT INTO t1 VALUES (?ts, ?n)`, Time("ts", day.AddDate(0, 0, d)), Int("n", int64(i)))
	}
	for i, d := range []int{1, 5, 5, 9} {
		db.MustExec(`INSERT INTO t2 VALUES (?ts, ?m)`, Time("ts", day.AddDate(0, 0, d)), Int("m", int64(i)))
	}
	db.MustExec(`INSERT INTO t2 VALUES (NULL, 77)`)
	return db
}

// TestJoinOnIsWhereEquality pins the hash join's keying to the `=` it
// stands for: JOIN ... ON <cond> returns exactly the rows the cross
// product filtered by WHERE <cond> returns, as multisets, whichever
// input builds, at any parallelism, vectorized or not. At e6278ea the
// join keyed rows by their printed form: fa/ib lost the -0.0 = 0 pair,
// fn/ib matched NaN with nothing, sc/ib matched '1' with 1, and s1/s2
// aliased NUL bytes across key columns.
func TestJoinOnIsWhereEquality(t *testing.T) {
	cases := []struct{ name, l, r, cols, cond string }{
		{"float-int", "fa", "ib", "l.k, l.n, r.k, r.m", "l.k = r.k"},
		{"float-float", "fa", "fa", "l.k, l.n, r.n", "l.k = r.k"},
		{"nan", "fn", "ib", "l.k, l.n, r.k, r.m", "l.k = r.k"},
		{"nan-composite", "fn", "fa", "l.k, l.n, r.n", "l.k = r.k AND l.n = r.n"},
		{"varchar-int", "sc", "ib", "l.k, l.n, r.k, r.m", "l.k = r.k"},
		{"varchar-varchar", "sc", "sc", "l.k, l.n, r.n", "l.k = r.k"},
		{"composite-strings", "s1", "s2", "l.n, r.m", "l.p = r.p AND l.q = r.q"},
		{"timestamps", "t1", "t2", "l.ts, l.n, r.m", "l.ts = r.ts"},
		{"residual", "fa", "ib", "l.k, l.n, r.m", "l.k = r.k AND l.n * 10 < r.m"},
		{"int-float-composite", "ib", "fa", "l.k, l.m, r.n", "l.k = r.k AND r.n = l.k"},
	}
	db := joinEqDB(t)
	for _, tc := range cases {
		for _, flip := range []bool{false, true} {
			l, r := tc.l, tc.r
			if flip {
				l, r = r, l
			}
			// Aliases stay with their tables, so flipping only swaps which
			// input is the left (and, by size, which one builds).
			la, ra := "l", "r"
			if flip {
				la, ra = "r", "l"
			}
			join := fmt.Sprintf("SELECT %s FROM %s AS %s JOIN %s AS %s ON %s", tc.cols, l, la, r, ra, tc.cond)
			cross := fmt.Sprintf("SELECT %s FROM %s AS %s, %s AS %s WHERE %s", tc.cols, l, la, r, ra, tc.cond)
			db.Parallelism(1)
			db.Vectorize(false)
			want := sortedLines(db.MustQuery(cross))
			for _, par := range []int{1, 4} {
				for _, vec := range []bool{false, true} {
					db.Parallelism(par)
					db.Vectorize(vec)
					if got := sortedLines(db.MustQuery(join)); got != want {
						t.Errorf("%s flip=%v par=%d vec=%v: JOIN ... ON differs from the WHERE form\n%s\ngot:\n%s\nwant:\n%s",
							tc.name, flip, par, vec, join, got, want)
					}
				}
			}
		}
	}
}
