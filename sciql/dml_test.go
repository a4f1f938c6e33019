package sciql

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestUpdateUnboundedCollectsThenScatters pins the write path of an
// unbounded array, whose cells exist only once written. An UPDATE
// reads a snapshot and writes afterwards, so writes that create cells —
// allocating a slab, appending a tabular row — or fill an attribute
// that was NULL everywhere cannot change what the statement visits:
// shifting every value one cell up moves each old value once, it does
// not cascade the first one through the array.
func TestUpdateUnboundedCollectsThenScatters(t *testing.T) {
	for _, scheme := range []string{"", "slab", "tabular"} {
		db := Open()
		if scheme != "" {
			db.SetStorageHint("line", scheme, 4)
		}
		db.MustExec(`CREATE ARRAY line (x INTEGER DIMENSION, v FLOAT, w INTEGER)`)
		for x := 0; x < 10; x++ {
			db.MustExec(`INSERT INTO line VALUES (?x, ?v)`, Int("x", int64(x)), Float("v", float64(10*x)))
		}
		db.MustExec(`UPDATE line SET line[x + 1].v = v`)
		var want []string
		for x := 0; x <= 10; x++ {
			want = append(want, fmt.Sprintf("%d|%d|NULL", x, 10*max(x-1, 0)))
		}
		sort.Strings(want)
		if got := numericLines(db.MustQuery(`SELECT x, v, w FROM line`)); got != strings.Join(want, "\n") {
			t.Errorf("scheme %q after the shift:\n%s\nwant:\n%s", scheme, got, strings.Join(want, "\n"))
		}
		// w was a hole in every cell, the one the shift created included.
		db.MustExec(`UPDATE line SET w = x * 2 WHERE w IS NULL`)
		rs := db.MustQuery(`SELECT COUNT(*), COUNT(w), SUM(w) FROM line`)
		if got := numericLines(rs); got != "11|11|110" {
			t.Errorf("scheme %q after filling w: %s, want 11|11|110", scheme, got)
		}
	}
}

// TestExplainAnalyzeDML: EXPLAIN ANALYZE of an UPDATE or DELETE runs
// the statement and reports the cells it scanned and matched, the
// segments its write copied, and whether its expressions ran as
// kernels or through the row interpreter.
func TestExplainAnalyzeDML(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE ARRAY em (x INTEGER DIMENSION[128], y INTEGER DIMENSION[128], v FLOAT DEFAULT 0.0, w INTEGER)`)
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{`EXPLAIN ANALYZE UPDATE em SET v = x * 128 + y`, []string{"Update em", "cells=16384", "matched=16384", "segments_copied=4", "columnar"}},
		{`EXPLAIN ANALYZE UPDATE em SET v = v + 1 WHERE x >= 3 AND x < 9 AND y = 2`, []string{"cells=6", "matched=6", "segments_copied=1", "columnar"}},
		{`EXPLAIN ANALYZE UPDATE em SET w = CASE WHEN v > 300 THEN 1 ELSE 0 END WHERE x < 4`, []string{"cells=512", "matched=512", "interpreted"}},
		{`EXPLAIN ANALYZE DELETE FROM em WHERE x >= 2 AND x < 4 AND y < 50 AND v >= 300`, []string{"Delete em", "cells=100", "matched=56", "segments_copied=2", "columnar"}},
		{`EXPLAIN ANALYZE DELETE FROM em WHERE v < 0`, []string{"cells=16384", "matched=0", "segments_copied=0"}},
	} {
		out := db.MustQuery(tc.sql).String()
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: no %q in\n%s", tc.sql, w, out)
			}
		}
	}
	// The statements ran: v = x*128+y with w set where x < 4, and 56
	// cells reset to the defaults beside the one whose v is 0 anyway.
	rs := db.MustQuery(`SELECT COUNT(*), COUNT(w) FROM em WHERE v = 0`)
	if got := numericLines(rs); got != "57|1" {
		t.Errorf("after the analyzed statements: %s, want 57|1", got)
	}
}

// TestDMLReadsPreStatementValues pins statement-level snapshot reads:
// whatever a statement reads of the array it writes — its own columns,
// an array reference to another cell, a subquery — is the value before
// the statement, on every scheme, columnar or interpreted. The array
// spans three 4096-cell segments and scan batches, so a write that
// leaked into a later batch's reads would show at x = 4096 and 8192.
func TestDMLReadsPreStatementValues(t *testing.T) {
	const n = 10000
	for _, scheme := range diffSchemes {
		for _, vec := range []bool{true, false} {
			name := fmt.Sprintf("scheme %q vectorize=%v", scheme, vec)
			db := Open()
			db.Vectorize(vec)
			db.SetStorageHint("m", scheme, 64)
			db.MustExec(fmt.Sprintf(`CREATE ARRAY m (x INTEGER DIMENSION[%d], v FLOAT DEFAULT 1.0, w FLOAT DEFAULT 0.0)`, n))
			check := func(after, sql, want string, args ...Arg) {
				t.Helper()
				if got := numericLines(db.MustQuery(sql, args...)); got != want {
					t.Errorf("%s after %s: %s = %s, want %s", name, after, sql, got, want)
				}
			}
			// Every cell but the first reads its left neighbour's old 1.
			db.MustExec(`UPDATE m SET v = m[x-1].v + 1 WHERE x > 0`)
			check("the neighbour read", `SELECT COUNT(*), MIN(v), MAX(v) FROM m WHERE x > 0`, fmt.Sprintf("%d|2|2", n-1))
			// The subquery sums the old column for each of the ten rows, on
			// either side of the segment boundary.
			db.MustExec(`UPDATE m SET v = 1`)
			db.MustExec(`UPDATE m SET v = (SELECT SUM(v) FROM m) + x WHERE x >= 4090 AND x < 4100`)
			check("the subquery read", `SELECT COUNT(*) FROM m WHERE v = ?n + x`, "10", Int("n", n))
			// A later SET clause sees the earlier clause's column, and still
			// the neighbour's old v.
			db.MustExec(`UPDATE m SET v = x`)
			db.MustExec(`UPDATE m SET v = -x, w = v + m[x-1].v WHERE x > 0`)
			check("the sequential SETs", `SELECT COUNT(*) FROM m WHERE w = -1`, fmt.Sprint(n-1))
			// A guarded SET reads like an UPDATE does.
			db.MustExec(`SET m[x].v = CASE WHEN x > 0 THEN m[x-1].v + 2 END`)
			check("the guarded SET", `SELECT COUNT(*) FROM m WHERE x > 0 AND v = 3 - x`, fmt.Sprint(n-1))
			// A DELETE decides every cell on the old values. Each cell of a
			// one-dimensional array is a whole line, so the one it matches is
			// taken out and the cells above it close up.
			db.MustExec(`UPDATE m SET v = x`)
			db.MustExec(`DELETE FROM m WHERE x > 0 AND m[x-1].v = 4095`)
			check("the DELETE", `SELECT x, v FROM m WHERE x IN (4095, 4096, 9998, 9999)`, "4095|4095\n4096|4097\n9998|9999\n9999|1")
		}
	}
}
