package parser

import (
	"strings"
	"testing"

	"repro/internal/sql/ast"
)

// FuzzParseRoundTrip is the parser's dynamic oracle: for any input the
// parser accepts, the printed form must re-parse, and printing must be
// a fixed point (print → parse → print is byte-identical). Inputs the
// parser rejects are fine — the property under test is that accepted
// trees have a stable textual form, which is what the planner caches
// and EXPLAIN output rely on.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		// Expressions (paper-derived, mirrors the round-trip corpus).
		`1 + 2 * 3`,
		`CASE WHEN x>y THEN x + y WHEN x<y THEN x - y ELSE 0 END`,
		`POWER(((b4 - b3) / (b4 + b3) + 0.5), 0.5)`,
		`matrix[1][1].v`,
		`sparse[0:2][0:2].v`,
		`landsat[3][x-1:x+2][y-1:y+2]`,
		`a[x:x+2:1][y]`,
		`v BETWEEN 10 AND 100`,
		`x NOT IN (1, 2, 3)`,
		`CAST(x AS FLOAT) / r`,
		`?lo + ?hi`,
		`TIMESTAMP '2010-09-03 16:30:00'`,
		`'it''s' || 'fine'`,
		`COUNT(DISTINCT a)`,
		`next(time) - time`,
		// Statements across the grammar.
		`SELECT x, y, v FROM matrix WHERE v > 2`,
		`SELECT [x], [y], avg(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`,
		`SELECT [x], [y], AVG(v) FROM landsat GROUP BY landsat[x-1:x+2][y-1:y+2] HAVING AVG(v) BETWEEN 10 AND 100`,
		`SELECT a.x, b.y FROM t1 AS a JOIN t2 AS b ON a.k = b.k ORDER BY a.x DESC LIMIT 10`,
		`SELECT 1 UNION SELECT 2 UNION ALL SELECT 3`,
		`CREATE ARRAY m (x INT DIMENSION [4], y INT DIMENSION [4], v FLOAT DEFAULT 0.0)`,
		`INSERT INTO m VALUES (0, 0, 1.5)`,
		`UPDATE m SET v = v + 1 WHERE x = 2`,
		`DELETE FROM m WHERE v IS NULL`,
		// Adversarial shapes.
		`SELECT`, `((((`, `[x`, `?`, `''`, `'`, `--`, `/*`, "a\x00b", `1e999`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return // bound parse cost; shapes beyond 4KiB add nothing
		}
		if e, err := ParseExpr(src); err == nil {
			printed := ast.Format(e)
			e2, err := ParseExpr(printed)
			if err != nil {
				t.Fatalf("printed expression does not re-parse:\n  src:   %q\n  print: %q\n  err:   %v", src, printed, err)
			}
			if again := ast.Format(e2); again != printed {
				t.Fatalf("expression print is not a fixed point:\n  src:   %q\n  print: %q\n  again: %q", src, printed, again)
			}
		}
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			sel, ok := s.(*ast.Select)
			if !ok {
				continue // only SELECT has a full printer today
			}
			printed := ast.FormatSelect(sel)
			s2, err := ParseOne(printed)
			if err != nil {
				t.Fatalf("printed SELECT does not re-parse:\n  src:   %q\n  print: %q\n  err:   %v", src, printed, err)
			}
			sel2, ok := s2.(*ast.Select)
			if !ok {
				t.Fatalf("printed SELECT re-parsed as %T:\n  src:   %q\n  print: %q", s2, src, printed)
			}
			if again := ast.FormatSelect(sel2); again != printed {
				t.Fatalf("SELECT print is not a fixed point:\n  src:   %q\n  print: %q\n  again: %q", src, printed, again)
			}
		}
	})
}

// FuzzParseNoCrash drives the whole statement grammar (DDL, DML,
// transactions, EXPLAIN) looking for panics and non-termination; the
// round-trip oracle above only exercises surfaces with printers.
func FuzzParseNoCrash(f *testing.F) {
	seeds := []string{
		`CREATE TABLE t (k INT PRIMARY KEY, s VARCHAR(10))`,
		`CREATE SEQUENCE seq START WITH 1 INCREMENT BY 2 MAXVALUE 100`,
		`CREATE FUNCTION f(a INT) RETURNS INT BEGIN RETURN a + 1; END`,
		`CREATE FUNCTION g(a FLOAT) RETURNS FLOAT EXTERNAL NAME 'blur'`,
		`ALTER ARRAY m ADD COLUMN w FLOAT DEFAULT 0.0`,
		`BEGIN; INSERT INTO t VALUES (1, 'x'); COMMIT`,
		`START TRANSACTION; ROLLBACK`,
		`EXPLAIN ANALYZE SELECT * FROM t`,
		`EXPLAIN ANALYZE UPDATE m SET v = v + 1 WHERE x < 2`,
		`DROP TABLE t; DROP ARRAY m`,
		strings.Repeat(`SELECT 1; `, 20),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		// Must return (statements or an error), never panic or hang.
		_, _ = Parse(src)
	})
}
