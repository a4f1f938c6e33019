package plan

import (
	"strings"
	"testing"

	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// fakeCat is a static schema provider for planner tests.
type fakeCat struct{}

func (fakeCat) ArrayInfo(name string) (dims, attrs []string, ok bool) {
	switch strings.ToLower(name) {
	case "matrix":
		return []string{"x", "y"}, []string{"v", "w"}, true
	case "series":
		return []string{"t"}, []string{"data"}, true
	}
	return nil, nil, false
}

func (fakeCat) IsTable(name string) bool { return strings.EqualFold(name, "events") }

func mustSelect(t *testing.T, sql string) *ast.Select {
	t.Helper()
	stmt, err := parser.ParseOne(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := stmt.(*ast.Select)
	if !ok {
		t.Fatalf("%q is %T, want *ast.Select", sql, stmt)
	}
	return sel
}

func optimized(t *testing.T, sql string) *Plan {
	t.Helper()
	return PlanSelect(mustSelect(t, sql), fakeCat{})
}

// golden asserts an exact rendered plan: the EXPLAIN contract.
func golden(t *testing.T, sql, want string) {
	t.Helper()
	got := optimized(t, sql).String()
	want = strings.TrimLeft(want, "\n")
	if got != want {
		t.Errorf("plan for %q:\ngot:\n%s\nwant:\n%s", sql, got, want)
	}
}

// TestPushdownGolden covers the bounded-array-select shape of the
// paper: equality pins a dimension, inequalities become a half-open
// slice, the attribute predicate stays in the filter, and unused
// attributes are pruned from the scan.
func TestPushdownGolden(t *testing.T) {
	golden(t,
		`SELECT v FROM matrix WHERE x = 1 AND y >= 2 AND y < 6 AND v > 0`,
		`
Project v
  Filter (v > 0)
    Scan matrix dims[x=1 (pushed), y=[2:6) (pushed)] attrs[v]
`)
}

// TestJoinKeysSurvivePruning: an attribute named only in a JOIN's ON
// condition is a reference — at e6278ea
// pruning ignored JOIN trees and the executor failed with "unbound
// name r.data".
func TestJoinKeysSurvivePruning(t *testing.T) {
	golden(t,
		`SELECT m.x FROM matrix AS m JOIN series AS r ON m.v = r.data`,
		`
Project m.x
  Join INNER on (m.v = r.data)
    Scan matrix AS m attrs[v]
    Scan series AS r
`)
}

// TestTilingGolden covers the paper's structural aggregation (§4.4):
// DISTINCT tiling compiles to a TiledAggregate over the anchor scan.
func TestTilingGolden(t *testing.T) {
	golden(t,
		`SELECT [x], [y], AVG(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`,
		`
Project [x], [y], AVG(v)
  TiledAggregate matrix distinct tiles[matrix[x:(x + 2)][y:(y + 2)]] aggs[AVG(v)]
    Scan matrix attrs[v]
`)
}

// TestConstantFolding checks pure-literal subtrees fold before
// rendering and that folded comparisons still push down.
func TestConstantFolding(t *testing.T) {
	golden(t,
		`SELECT v + (2 * 3) FROM matrix WHERE x < 4 + 4`,
		`
Project (v + 6)
  Scan matrix dims[x=[*:8) (pushed)] attrs[v]
`)
}

// TestFromSliceGolden checks FROM-clause slicing lands on the scan and
// blocks double-pushing the same dimension.
func TestFromSliceGolden(t *testing.T) {
	golden(t,
		`SELECT v FROM matrix[0:4][0:4] WHERE x > 1`,
		`
Project v
  Filter (x > 1)
    Scan matrix dims[x=[0:4) (sliced), y=[0:4) (sliced)] attrs[v]
`)
}

// TestFullyConsumedFilter checks the filter node disappears when every
// conjunct pushes into the scan.
func TestFullyConsumedFilter(t *testing.T) {
	golden(t,
		`SELECT v FROM matrix WHERE x = 3`,
		`
Project v
  Scan matrix dims[x=3 (pushed)] attrs[v]
`)
}

// TestValueAggregate checks value grouping compiles to Aggregate and
// keeps the group key attribute in the scan.
func TestValueAggregate(t *testing.T) {
	golden(t,
		`SELECT w, SUM(v) FROM matrix GROUP BY w ORDER BY w LIMIT 3`,
		`
Limit 3
  Sort w
    Project w, SUM(v)
      Aggregate keys[w] aggs[SUM(v)]
        Scan matrix
`)
}

// TestConflictingConjunctsStayVisible checks contradictory or
// redundant dimension predicates never silently vanish from the plan:
// the scan keeps the first equality and the rest stay in the filter.
func TestConflictingConjunctsStayVisible(t *testing.T) {
	golden(t,
		`SELECT v FROM matrix WHERE x = 1 AND x = 2`,
		`
Project v
  Filter (x = 2)
    Scan matrix dims[x=1 (pushed)] attrs[v]
`)
	golden(t,
		`SELECT v FROM matrix WHERE x = 1 AND x < 0`,
		`
Project v
  Filter (x < 0)
    Scan matrix dims[x=1 (pushed)] attrs[v]
`)
	// A redundant duplicate equality is consumed outright.
	golden(t,
		`SELECT v FROM matrix WHERE x = 1 AND x = 1`,
		`
Project v
  Scan matrix dims[x=1 (pushed)] attrs[v]
`)
}

// TestStarDisablesPruning checks SELECT * keeps all attributes.
func TestStarDisablesPruning(t *testing.T) {
	p := optimized(t, `SELECT * FROM matrix`)
	if strings.Contains(p.String(), "attrs[") {
		t.Fatalf("star select pruned attributes:\n%s", p.String())
	}
}

// TestParallelFlags checks the structural gate.
func TestParallelFlags(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{`SELECT v FROM matrix WHERE v > 0`, true},
		{`SELECT [x], [y], AVG(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`, true},
		{`SELECT COUNT(*) FROM events`, true},
		{`SELECT a.v FROM matrix AS a, matrix AS b`, false},
		{`SELECT v FROM matrix UNION SELECT v FROM matrix`, false},
		{`SELECT v FROM (SELECT v FROM matrix) AS s`, false},
		// JOIN ... ON runs the partitioned hash join, which parallelizes
		// internally; only the unkeyed comma join stays serial.
		{`SELECT m.v FROM matrix AS m JOIN events ON m.x = events.x`, true},
		{`SELECT 1`, false},
		{`SELECT v FROM nosuch`, false},
	}
	for _, c := range cases {
		p := optimized(t, c.sql)
		if p.Parallel != c.want {
			t.Errorf("%q: Parallel = %v (reason %q), want %v", c.sql, p.Parallel, p.Reason, c.want)
		}
	}
}

// TestTableScan checks relational tables plan as TableScan without
// attribute pruning.
func TestTableScan(t *testing.T) {
	golden(t,
		`SELECT x FROM events WHERE x > 1`,
		`
Project x
  Filter (x > 1)
    TableScan events
`)
}
