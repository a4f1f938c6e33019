package sciql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file holds the structural shapes of the differential suite —
// tiling and attribute-keyed joins over the diffDB arrays — each
// written twice: as SQL for the engine and as plain Go for a
// deliberately naive reference evaluator (nested loops over Array.Get
// and scanned rows; no planner, no kernels, no hashing, no shared code
// with internal/exec). TestTilingAndJoinMatchNaive checks the engine
// against that evaluator; diffQueries runs the same SQL through every
// execution mode and storage scheme.

const diffSide = 96 // the diffDB arrays are diffSide x diffSide

// nval is a number or NULL, the only values the shapes produce.
type nval struct {
	f    float64
	null bool
}

func num(f float64) nval { return nval{f: f} }

var nnull = nval{null: true}

func (v nval) String() string {
	if v.null {
		return "NULL"
	}
	return strconv.FormatFloat(v.f, 'g', -1, 64)
}

// ncell is one live cell as the naive evaluator reads it: coordinates
// and the array's attributes in declaration order.
type ncell struct {
	x, y int64
	v    []nval
}

// readCell reads the cell at (x, y) attribute by attribute; ok is false
// for a hole or a position outside the array.
func readCell(arr *Array, nattrs int, x, y int64) (ncell, bool) {
	c := ncell{x: x, y: y, v: make([]nval, nattrs)}
	live := false
	for ai := range c.v {
		if v := arr.Get([]int64{x, y}, ai); v.Null {
			c.v[ai] = nnull
		} else {
			c.v[ai], live = num(v.AsFloat()), true
		}
	}
	return c, live
}

// nrange is the coordinates lo, lo+step, ... below hi.
type nrange struct{ lo, hi, step int64 }

func span(lo, hi int64) nrange { return nrange{lo, hi, 1} }

var whole = span(0, diffSide)

// nagg is one aggregate of a shape: its SQL and what it folds per cell
// (val nil: COUNT(*)).
type nagg struct {
	fn, arg string
	val     func(c ncell) nval
}

func (a nagg) sql() string { return a.fn + "(" + a.arg + ")" }

// fold computes the aggregate over the values in order, SQL style:
// NULLs are skipped, an empty input is NULL (0 for COUNT).
func (a nagg) fold(cells []ncell) nval {
	if a.val == nil {
		return num(float64(len(cells)))
	}
	var sum, lo, hi float64
	n := 0
	for _, c := range cells {
		v := a.val(c)
		if v.null {
			continue
		}
		if n == 0 || v.f < lo {
			lo = v.f
		}
		if n == 0 || v.f > hi {
			hi = v.f
		}
		sum += v.f
		n++
	}
	switch {
	case a.fn == "COUNT":
		return num(float64(n))
	case n == 0:
		return nnull
	case a.fn == "SUM":
		return num(sum)
	case a.fn == "AVG":
		return num(sum / float64(n))
	case a.fn == "MIN":
		return num(lo)
	}
	return num(hi)
}

// tileShape is one structural grouping: SELECT [anchors], aggs FROM
// from WHERE where GROUP BY [DISTINCT] pattern HAVING having.
type tileShape struct {
	arr              string
	from             string // FROM item; "" is the array itself
	inFrom           func(x, y int64) bool
	where            string
	keep             func(c ncell) bool
	distinct         bool
	anchorX, anchorY bool
	pattern          string
	// tiles lists, per tile element, the coordinates it denotes when
	// anchored at (ax, ay).
	tiles  []func(ax, ay int64) (xs, ys nrange)
	aggs   []nagg
	having string
	pass   func(out []nval) bool
}

func (s tileShape) sql() string {
	var items []string
	if s.anchorX {
		items = append(items, "[x]")
	}
	if s.anchorY {
		items = append(items, "[y]")
	}
	for _, a := range s.aggs {
		items = append(items, a.sql())
	}
	from := s.from
	if from == "" {
		from = s.arr
	}
	q := "SELECT " + strings.Join(items, ", ") + " FROM " + from
	if s.where != "" {
		q += " WHERE " + s.where
	}
	q += " GROUP BY "
	if s.distinct {
		q += "DISTINCT "
	}
	q += s.pattern
	if s.having != "" {
		q += " HAVING " + s.having
	}
	return q
}

// naive evaluates the shape cell by cell and returns its rows as sorted
// lines of numbers.
func (s tileShape) naive(db *DB) string {
	arr, _ := db.LookupArray(s.arr)
	nattrs := 3
	if s.arr == "holes" {
		nattrs = 2
	}
	// Anchors: the scanned cells FROM and WHERE keep, projected onto the
	// anchor variables, first occurrence only.
	type anchor struct{ x, y int64 }
	var anchors []anchor
	for x := int64(0); x < diffSide; x++ {
		for y := int64(0); y < diffSide; y++ {
			c, live := readCell(arr, nattrs, x, y)
			if !live || s.inFrom != nil && !s.inFrom(x, y) || s.keep != nil && !s.keep(c) {
				continue
			}
			a := anchor{-1, -1}
			if s.anchorX {
				a.x = x
			}
			if s.anchorY {
				a.y = y
			}
			seen := false
			for i := len(anchors) - 1; i >= 0 && !seen && !(s.anchorX && s.anchorY); i-- {
				seen = anchors[i] == a
			}
			if !seen {
				anchors = append(anchors, a)
			}
		}
	}
	// DISTINCT keeps the anchors a whole number of tile extents away from
	// the first one.
	if s.distinct && len(anchors) > 0 {
		o := anchors[0]
		var ex, ey int64 = 1, 1
		var lox, hix, loy, hiy int64
		for i, tile := range s.tiles {
			xs, ys := tile(o.x, o.y)
			if i == 0 || xs.lo < lox {
				lox = xs.lo
			}
			if i == 0 || xs.hi > hix {
				hix = xs.hi
			}
			if i == 0 || ys.lo < loy {
				loy = ys.lo
			}
			if i == 0 || ys.hi > hiy {
				hiy = ys.hi
			}
		}
		if s.anchorX {
			ex = max(hix-lox, 1)
		}
		if s.anchorY {
			ey = max(hiy-loy, 1)
		}
		var kept []anchor
		for _, a := range anchors {
			if (a.x-o.x)%ex == 0 && (a.y-o.y)%ey == 0 {
				kept = append(kept, a)
			}
		}
		anchors = kept
	}
	var lines []string
	for _, a := range anchors {
		var cells []ncell
		for _, tile := range s.tiles {
			xs, ys := tile(a.x, a.y)
			for x := xs.lo; x < xs.hi; x += xs.step {
				for y := ys.lo; y < ys.hi; y += ys.step {
					dup := false
					for _, c := range cells {
						dup = dup || c.x == x && c.y == y
					}
					if c, live := readCell(arr, nattrs, x, y); live && !dup {
						cells = append(cells, c)
					}
				}
			}
		}
		out := make([]nval, len(s.aggs))
		for i, ag := range s.aggs {
			out[i] = ag.fold(cells)
		}
		if s.pass != nil && !s.pass(out) {
			continue
		}
		var parts []string
		if s.anchorX {
			parts = append(parts, num(float64(a.x)).String())
		}
		if s.anchorY {
			parts = append(parts, num(float64(a.y)).String())
		}
		for _, v := range out {
			parts = append(parts, v.String())
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// numericLines renders a result like the naive evaluator renders its
// rows: every value as a number, sorted.
func numericLines(rs *Result) string {
	var lines []string
	for r := 0; r < rs.NumRows(); r++ {
		parts := make([]string, rs.NumCols())
		for c := range parts {
			v := rs.Get(r, c)
			parts[c] = nval{f: v.AsFloat(), null: v.Null}.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// attribute readers: grid is (a, b, c), holes is (p, q).
func attr(i int) func(c ncell) nval { return func(c ncell) nval { return c.v[i] } }

// box is the tile [ax+x0 : ax+x1][ay+y0 : ay+y1].
func box(x0, x1, y0, y1 int64) func(ax, ay int64) (nrange, nrange) {
	return func(ax, ay int64) (nrange, nrange) { return span(ax+x0, ax+x1), span(ay+y0, ay+y1) }
}

// tileShapes is the tiling half of the structural shapes: sliding and
// DISTINCT tiles, partial anchors, multi-element patterns (with and
// without overlap), stepped FROM slices, WHERE on anchors and on
// attributes, HAVING, expression arguments the kernel compiler takes
// and one it does not, bounds that are not anchor ± constant, explicit
// strides and open-ended ranges — over the dense grid and the
// hole-punched, NULL-bearing holes array. DISTINCT shapes keep the
// lowest candidate corner live, so the alignment origin does not depend
// on a scheme's scan order.
func tileShapes() []tileShape {
	count := nagg{fn: "COUNT", arg: "*"}
	a, b, c := attr(0), attr(1), attr(2)
	p, q := attr(0), attr(1)
	stencil := []func(ax, ay int64) (nrange, nrange){box(0, 1, 0, 1), box(-1, 0, 0, 1), box(1, 2, 0, 1), box(0, 1, -1, 0), box(0, 1, 1, 2)}
	return []tileShape{
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x-1:x+2][y-1:y+2]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(-1, 2, -1, 2)},
			aggs:  []nagg{{"AVG", "a", a}, count}},
		{arr: "holes", anchorX: true, anchorY: true, pattern: "holes[x-2:x+1][y:y+3]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(-2, 1, 0, 3)},
			aggs:  []nagg{{"SUM", "p", p}, count, {"COUNT", "q", q}, {"MIN", "q", q}}},
		{arr: "grid", distinct: true, anchorX: true, anchorY: true, pattern: "grid[x:x+4][y:y+4]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(0, 4, 0, 4)},
			aggs:  []nagg{{"SUM", "a", a}, {"MAX", "b", b}}},
		{arr: "holes", distinct: true, anchorX: true, anchorY: true, pattern: "holes[x:x+3][y:y+5]",
			where: "x >= 1 AND y >= 1", keep: func(c ncell) bool { return c.x >= 1 && c.y >= 1 },
			tiles: []func(ax, ay int64) (nrange, nrange){box(0, 3, 0, 5)},
			aggs:  []nagg{{"SUM", "p", p}, count, {"MAX", "q", q}}},
		{arr: "grid", anchorX: true, pattern: "grid[x][*]",
			tiles: []func(ax, ay int64) (nrange, nrange){func(ax, _ int64) (nrange, nrange) { return span(ax, ax+1), whole }},
			aggs:  []nagg{{"AVG", "a", a}, {"COUNT", "c", c}, {"SUM", "c", c}}},
		{arr: "holes", anchorY: true, pattern: "holes[*][y]",
			tiles: []func(ax, ay int64) (nrange, nrange){func(_, ay int64) (nrange, nrange) { return whole, span(ay, ay+1) }},
			aggs:  []nagg{{"SUM", "p", p}, count}},
		{arr: "grid", anchorX: true, pattern: "grid[x-1:x+2][*]",
			tiles: []func(ax, ay int64) (nrange, nrange){func(ax, _ int64) (nrange, nrange) { return span(ax-1, ax+2), whole }},
			aggs:  []nagg{{"MAX", "a", a}, count}},
		{arr: "holes", anchorX: true, anchorY: true,
			pattern: "holes[x][y], holes[x-1][y], holes[x+1][y], holes[x][y-1], holes[x][y+1]",
			tiles:   stencil, aggs: []nagg{{"AVG", "p", p}, count}},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x-1:x+1][y], grid[x][y-1:y+2], grid[x][y]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(-1, 1, 0, 1), box(0, 1, -1, 2), box(0, 1, 0, 1)},
			aggs:  []nagg{{"SUM", "a", a}, count}},
		{arr: "grid", from: "grid[3:90:4][5:70:6]", anchorX: true, anchorY: true, pattern: "grid[x-1:x+2][y-2:y+3]",
			inFrom: func(x, y int64) bool { return x >= 3 && x < 90 && (x-3)%4 == 0 && y >= 5 && y < 70 && (y-5)%6 == 0 },
			tiles:  []func(ax, ay int64) (nrange, nrange){box(-1, 2, -2, 3)},
			aggs:   []nagg{{"SUM", "b", b}, count}},
		{arr: "grid", from: "grid[0:96:2][0:96:3]", distinct: true, anchorX: true, anchorY: true, pattern: "grid[x:x+4][y:y+6]",
			inFrom: func(x, y int64) bool { return x%2 == 0 && y%3 == 0 },
			tiles:  []func(ax, ay int64) (nrange, nrange){box(0, 4, 0, 6)},
			aggs:   []nagg{{"SUM", "a", a}, {"COUNT", "c", c}}},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x:x+2][y-1:y+2]",
			where: "x >= 10 AND x < 40 AND MOD(y, 3) = 0", keep: func(c ncell) bool { return c.x >= 10 && c.x < 40 && c.y%3 == 0 },
			tiles: []func(ax, ay int64) (nrange, nrange){box(0, 2, -1, 2)},
			aggs:  []nagg{{"AVG", "a", a}, {"MIN", "c", c}}},
		{arr: "holes", anchorX: true, anchorY: true, pattern: "holes[x-1:x+2][y-1:y+2]",
			where: "q IS NOT NULL AND p > 500", keep: func(c ncell) bool { return !c.v[1].null && c.v[0].f > 500 },
			tiles: []func(ax, ay int64) (nrange, nrange){box(-1, 2, -1, 2)},
			aggs:  []nagg{{"SUM", "q", q}, count}},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x-1:x+2][y-1:y+2]",
			tiles:  []func(ax, ay int64) (nrange, nrange){box(-1, 2, -1, 2)},
			aggs:   []nagg{{"SUM", "a", a}, count},
			having: "COUNT(*) < 9", pass: func(out []nval) bool { return out[1].f < 9 }},
		{arr: "holes", anchorX: true, anchorY: true, pattern: "holes[x:x+2][y:y+2]",
			tiles:  []func(ax, ay int64) (nrange, nrange){box(0, 2, 0, 2)},
			aggs:   []nagg{{"MIN", "q", q}, {"SUM", "p", p}},
			having: "MIN(q) IS NOT NULL AND SUM(p) > 4000", pass: func(out []nval) bool { return !out[0].null && out[1].f > 4000 }},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x:x+2][y:y+2]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(0, 2, 0, 2)},
			aggs: []nagg{
				{"SUM", "a * 2 - x", func(c ncell) nval { return num(c.v[0].f*2 - float64(c.x)) }},
				{"AVG", "(b + y) / 4", func(c ncell) nval { return num((c.v[1].f + float64(c.y)) / 4) }},
				{"MAX", "MOD(x * 7 + y, 13)", func(c ncell) nval { return num(float64((c.x*7 + c.y) % 13)) }}}},
		{arr: "holes", anchorX: true, anchorY: true, pattern: "holes[x:x+2][y:y+3]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(0, 2, 0, 3)},
			aggs: []nagg{
				{"SUM", "q * 2 - y", func(c ncell) nval {
					if c.v[1].null {
						return nnull
					}
					return num(c.v[1].f*2 - float64(c.y))
				}},
				{"COUNT", "q + x", q}, {"MAX", "p - x", func(c ncell) nval { return num(c.v[0].f - float64(c.x)) }}}},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x-1:x+2][y]",
			tiles: []func(ax, ay int64) (nrange, nrange){box(-1, 2, 0, 1)},
			aggs: []nagg{
				{"SUM", "CASE WHEN a > 4000 THEN 1 ELSE 0 END", func(c ncell) nval {
					if c.v[0].f > 4000 {
						return num(1)
					}
					return num(0)
				}}, count}},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x/4*4 : x/4*4+4][y]",
			tiles: []func(ax, ay int64) (nrange, nrange){func(ax, ay int64) (nrange, nrange) { return span(ax/4*4, ax/4*4+4), span(ay, ay+1) }},
			aggs:  []nagg{{"SUM", "a", a}, count}},
		{arr: "grid", anchorX: true, anchorY: true, pattern: "grid[x:x+6:2][y:y+9:3]",
			tiles: []func(ax, ay int64) (nrange, nrange){func(ax, ay int64) (nrange, nrange) { return nrange{ax, ax + 6, 2}, nrange{ay, ay + 9, 3} }},
			aggs:  []nagg{{"SUM", "a", a}, count}},
		{arr: "holes", anchorX: true, anchorY: true, pattern: "holes[x][y:*]",
			where: "x < 24", keep: func(c ncell) bool { return c.x < 24 },
			tiles: []func(ax, ay int64) (nrange, nrange){func(ax, ay int64) (nrange, nrange) { return span(ax, ax+1), span(ay, diffSide) }},
			aggs:  []nagg{{"SUM", "p", p}, count}},
		{arr: "grid", anchorX: true, pattern: "grid[x][3]",
			tiles: []func(ax, ay int64) (nrange, nrange){func(ax, _ int64) (nrange, nrange) { return span(ax, ax+1), span(3, 4) }},
			aggs:  []nagg{{"AVG", "a", a}, {"MAX", "c", c}}},
	}
}

// joinShape is one attribute-keyed join of two diffDB scans: SELECT
// l.x, l.y, r.x, r.y, l.<key> FROM left AS l JOIN right AS r ON the
// key equalities [AND residual].
type joinShape struct {
	left, right string
	lkeys       []string
	rkeys       []string
	residual    string
	keep        func(l, r map[string]Value) bool
}

func (j joinShape) sql() string {
	var on []string
	for i := range j.lkeys {
		on = append(on, fmt.Sprintf("l.%s = r.%s", j.lkeys[i], j.rkeys[i]))
	}
	if j.residual != "" {
		on = append(on, j.residual)
	}
	return fmt.Sprintf("SELECT l.x, l.y, r.x AS rx, r.y AS ry, l.%s AS k FROM %s AS l JOIN %s AS r ON %s",
		j.lkeys[0], j.left, j.right, strings.Join(on, " AND "))
}

// naive joins the two scans with nested loops: a pair matches when
// every key pair is non-NULL and numerically equal.
func (j joinShape) naive(db *DB) string {
	scan := func(from string) []map[string]Value {
		rs := db.MustQuery("SELECT * FROM " + from)
		rows := make([]map[string]Value, rs.NumRows())
		for r := range rows {
			rows[r] = make(map[string]Value, rs.NumCols())
			for c, col := range rs.Cols {
				rows[r][col.Name] = rs.Get(r, c)
			}
		}
		return rows
	}
	var lines []string
	rrows := scan(j.right)
	for _, l := range scan(j.left) {
		for _, r := range rrows {
			match := true
			for i := range j.lkeys {
				lv, rv := l[j.lkeys[i]], r[j.rkeys[i]]
				match = match && !lv.Null && !rv.Null && lv.AsFloat() == rv.AsFloat()
			}
			if !match || j.keep != nil && !j.keep(l, r) {
				continue
			}
			parts := make([]string, 0, 5)
			for _, v := range []Value{l["x"], l["y"], r["x"], r["y"], l[j.lkeys[0]]} {
				parts = append(parts, nval{f: v.AsFloat(), null: v.Null}.String())
			}
			lines = append(lines, strings.Join(parts, "|"))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// joinShapes is the join half: keys on a nullable integer attribute
// with many duplicates on both sides, on a float attribute, across
// INTEGER and FLOAT, between the two arrays, with a repeated and a
// residual conjunct, and with the small input on the left (so it
// builds).
func joinShapes() []joinShape {
	return []joinShape{
		{left: "grid", right: "grid[40:46][40:46]", lkeys: []string{"c"}, rkeys: []string{"c"}},
		{left: "grid", right: "grid[10:14][20:24]", lkeys: []string{"b"}, rkeys: []string{"b"}},
		{left: "holes", right: "grid[0:12][0:8]", lkeys: []string{"q"}, rkeys: []string{"b"}},
		{left: "holes", right: "grid[30:36][30:36]", lkeys: []string{"q"}, rkeys: []string{"c"}},
		{left: "grid", right: "grid[20:24][*]", lkeys: []string{"y", "y", "c"}, rkeys: []string{"y", "y", "c"}},
		{left: "grid[10:14][20:24]", right: "grid", lkeys: []string{"b"}, rkeys: []string{"b"}},
		{left: "grid", right: "holes[40:48][40:48]", lkeys: []string{"c"}, rkeys: []string{"q"},
			residual: "l.a < r.p * 4", keep: func(l, r map[string]Value) bool { return l["a"].AsFloat() < r["p"].AsFloat()*4 }},
	}
}

// TestTilingAndJoinMatchNaive checks the engine against the naive
// reference evaluator on every structural shape: the two share no code,
// so a bug in the planner, the kernels, the window addressing or the
// key table cannot hide behind the engine agreeing with itself.
func TestTilingAndJoinMatchNaive(t *testing.T) {
	db := diffDB(t, "")
	for _, par := range []int{1, 4} {
		db.Parallelism(par)
		for _, s := range tileShapes() {
			rs, err := db.Query(s.sql())
			if err != nil {
				t.Fatalf("%s: %v", s.sql(), err)
			}
			if got, want := numericLines(rs), s.naive(db); got != want {
				t.Errorf("par=%d %s\nengine and naive evaluator disagree:\n%s", par, s.sql(), firstDiff(got, want))
			} else if rs.NumRows() == 0 {
				t.Errorf("%s: shape selects nothing", s.sql())
			}
		}
		for _, j := range joinShapes() {
			rs, err := db.Query(j.sql())
			if err != nil {
				t.Fatalf("%s: %v", j.sql(), err)
			}
			if got, want := numericLines(rs), j.naive(db); got != want {
				t.Errorf("par=%d %s\nengine and naive evaluator disagree:\n%s", par, j.sql(), firstDiff(got, want))
			} else if rs.NumRows() == 0 {
				t.Errorf("%s: shape selects nothing", j.sql())
			}
		}
	}
}

// firstDiff reports the sizes of two line sets and the first line at
// which they part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("engine %d rows, naive %d rows; first difference at sorted row %d: engine %q, naive %q", len(g), len(w), i, g[i], w[i])
		}
	}
	return fmt.Sprintf("engine %d rows, naive %d rows; one is a prefix of the other", len(g), len(w))
}

// TestTilingWindowKindsAgree runs the same tilings over the same cells
// held two ways: a bounded array on a stepped grid, whose window is
// addressed by position, and an unbounded one, whose bounding box is far
// larger than its cell count and whose window is therefore hashed.
func TestTilingWindowKindsAgree(t *testing.T) {
	db := Open()
	db.MustExec(`
		CREATE ARRAY stepped (x INTEGER DIMENSION[0:1000:50], y INTEGER DIMENSION[0:1000:50], v FLOAT, w INTEGER);
		CREATE ARRAY loose (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT, w INTEGER)`)
	for x := int64(0); x < 1000; x += 50 {
		for y := int64(0); y < 1000; y += 50 {
			if (x/50*7+y/50)%5 == 0 {
				continue // a hole
			}
			for _, arr := range []string{"stepped", "loose"} {
				db.MustExec(fmt.Sprintf(`INSERT INTO %s VALUES (?x, ?y, ?v, ?w)`, arr),
					Int("x", x), Int("y", y), Float("v", float64(x+y)/4), Int("w", (x/50+y/50)%7))
			}
		}
	}
	db.MustExec(`UPDATE stepped SET w = NULL WHERE MOD(x + y, 150) = 0`)
	db.MustExec(`UPDATE loose SET w = NULL WHERE MOD(x + y, 150) = 0`)
	for _, q := range []string{
		`SELECT [x], [y], SUM(v), COUNT(*), MIN(w) FROM %[1]s GROUP BY %[1]s[x-50:x+51][y-50:y+51]`,
		`SELECT [x], [y], AVG(v * 2 - x), COUNT(w) FROM %[1]s GROUP BY DISTINCT %[1]s[x:x+100][y:y+150]`,
		`SELECT [x], SUM(w), COUNT(*) FROM %[1]s GROUP BY %[1]s[x][*]`,
		`SELECT [x], [y], SUM(v) FROM %[1]s WHERE w IS NOT NULL GROUP BY %[1]s[x][y], %[1]s[x+50][y], %[1]s[x][y+50:y+101]`,
	} {
		for _, par := range []int{1, 4} {
			db.Parallelism(par)
			a := groupLines(t, db, fmt.Sprintf(q, "stepped"))
			b := groupLines(t, db, fmt.Sprintf(q, "loose"))
			if a != b || a == "" {
				t.Errorf("par=%d %s\npositional and hashed windows disagree:\n%s", par, q, firstDiff(a, b))
			}
		}
	}
	for arr, kind := range map[string]string{"stepped": "window=positional", "loose": "window=hashed"} {
		rs := db.MustQuery(fmt.Sprintf(`EXPLAIN ANALYZE SELECT [x], [y], SUM(v) FROM %[1]s GROUP BY %[1]s[x-50:x+51][y-50:y+51]`, arr))
		if !strings.Contains(rs.String(), kind) {
			t.Errorf("%s: want %s in\n%s", arr, kind, rs)
		}
	}
}

// ngrid is the naive evaluator's copy of a bounded side x side array:
// every covered cell in row-major order, a hole as all NULLs. def is
// what DELETE resets a cell to and what a vacated line holds.
type ngrid struct {
	side  int64
	cells [][]nval
	def   []nval
}

func newGrid(side int64, def []nval) *ngrid {
	g := &ngrid{side: side, cells: make([][]nval, side*side), def: def}
	for i := range g.cells {
		g.cells[i] = append([]nval(nil), def...)
	}
	return g
}

func (g *ngrid) at(x, y int64) []nval { return g.cells[x*g.side+y] }

func (g *ngrid) clone() *ngrid {
	out := &ngrid{side: g.side, cells: make([][]nval, len(g.cells)), def: g.def}
	for i, c := range g.cells {
		out.cells[i] = append([]nval(nil), c...)
	}
	return out
}

func isHole(c []nval) bool {
	for _, v := range c {
		if !v.null {
			return false
		}
	}
	return true
}

// readGrid copies an array cell by cell through Get.
func readGrid(arr *Array, side int64, def []nval) *ngrid {
	g := newGrid(side, def)
	for x := int64(0); x < side; x++ {
		for y := int64(0); y < side; y++ {
			c, _ := readCell(arr, len(def), x, y)
			copy(g.at(x, y), c.v)
		}
	}
	return g
}

// delete is §3.2's DELETE with nested loops: the matched cells (holes
// among them) go; a dimension line all of whose cells went is taken
// out and the lines above it move down; a vacated cell holds the
// defaults; every other cell, a hole included, keeps what it held.
func (g *ngrid) delete(matched func(x, y int64) bool) *ngrid {
	dead := [2][]int64{make([]int64, g.side), make([]int64, g.side)}
	for x := int64(0); x < g.side; x++ {
		for y := int64(0); y < g.side; y++ {
			if matched(x, y) {
				dead[0][x]++
				dead[1][y]++
			}
		}
	}
	var remap [2][]int64
	for d := range remap {
		remap[d] = make([]int64, g.side)
		rank := int64(0)
		for v := range remap[d] {
			remap[d][v] = -1
			if dead[d][v] < g.side {
				remap[d][v] = rank
				rank++
			}
		}
	}
	out := newGrid(g.side, g.def)
	for x := int64(0); x < g.side; x++ {
		for y := int64(0); y < g.side; y++ {
			if nx, ny := remap[0][x], remap[1][y]; !matched(x, y) && nx >= 0 && ny >= 0 {
				copy(out.at(nx, ny), g.at(x, y))
			}
		}
	}
	return out
}

// diff compares the grid with an array, cell by cell through Get and
// by the live-cell count; "" when they agree.
func (g *ngrid) diff(arr *Array) string {
	live := 0
	for x := int64(0); x < g.side; x++ {
		for y := int64(0); y < g.side; y++ {
			want := g.at(x, y)
			got, _ := readCell(arr, len(g.def), x, y)
			for ai := range want {
				if got.v[ai] != want[ai] {
					return fmt.Sprintf("cell [%d][%d] holds %v, the naive model says %v", x, y, got.v, want)
				}
			}
			if !isHole(want) {
				live++
			}
		}
	}
	if arr.Len() != live {
		return fmt.Sprintf("%d live cells, the naive model says %d", arr.Len(), live)
	}
	return ""
}

// dmlShape is one UPDATE or DELETE over a diffDB array, written twice:
// as SQL and as nested loops over the naive grid.
type dmlShape struct {
	arr   string
	sql   string
	naive func(g *ngrid) *ngrid
}

// each applies set to every covered cell match accepts.
func (g *ngrid) each(match func(x, y int64, c []nval) bool, set func(x, y int64, c []nval)) *ngrid {
	for x := int64(0); x < g.side; x++ {
		for y := int64(0); y < g.side; y++ {
			if c := g.at(x, y); match(x, y, c) {
				set(x, y, c)
			}
		}
	}
	return g
}

// dmlShapes covers, on the dense grid (a, b DEFAULT-bearing; c
// nullable) and on holes (p, q; no defaults): SET clauses that read
// earlier ones, UPDATE filling holes and punching them, NULL-valued
// predicates, and UPDATE and DELETE with only dimension predicates
// (which push down), only attribute predicates, and both — DELETEs
// that kill no line, one line and several, on arrays with and without
// holes and defaults.
func dmlShapes() []dmlShape {
	always := func(int64, int64, []nval) bool { return true }
	inBox := func(x0, x1, y0, y1 int64) func(x, y int64, c []nval) bool {
		return func(x, y int64, _ []nval) bool { return x >= x0 && x < x1 && y >= y0 && y < y1 }
	}
	return []dmlShape{
		{"grid", "UPDATE grid SET a = a + 1, b = a * 2", func(g *ngrid) *ngrid {
			return g.each(always, func(_, _ int64, c []nval) { c[0].f++; c[1] = num(c[0].f * 2) })
		}},
		{"grid", "UPDATE grid SET c = c + 10 WHERE c > 5", func(g *ngrid) *ngrid {
			return g.each(func(_, _ int64, c []nval) bool { return !c[2].null && c[2].f > 5 }, func(_, _ int64, c []nval) { c[2].f += 10 })
		}},
		{"grid", "UPDATE grid SET b = NULL WHERE x >= 20 AND x < 30 AND y >= 90", func(g *ngrid) *ngrid {
			return g.each(inBox(20, 30, 90, diffSide), func(_, _ int64, c []nval) { c[1] = nnull })
		}},
		{"grid", "UPDATE grid SET a = NULL, b = NULL, c = NULL WHERE x = 3 AND y < 5", func(g *ngrid) *ngrid {
			return g.each(inBox(3, 4, 0, 5), func(_, _ int64, c []nval) { c[0], c[1], c[2] = nnull, nnull, nnull })
		}},
		{"holes", "UPDATE holes SET q = x + y WHERE p IS NULL AND x < 40", func(g *ngrid) *ngrid {
			return g.each(func(x, _ int64, c []nval) bool { return c[0].null && x < 40 }, func(x, y int64, c []nval) { c[1] = num(float64(x + y)) })
		}},
		{"holes", "UPDATE holes SET p = p * 2, q = NULL WHERE MOD(x + y, 3) = 0 AND y >= 48", func(g *ngrid) *ngrid {
			return g.each(func(x, y int64, _ []nval) bool { return (x+y)%3 == 0 && y >= 48 }, func(_, _ int64, c []nval) {
				if c[1] = nnull; !c[0].null {
					c[0].f *= 2
				}
			})
		}},
		{"grid", "DELETE FROM grid WHERE x >= 10 AND x < 20 AND y >= 5 AND y < 9", func(g *ngrid) *ngrid {
			return g.delete(func(x, y int64) bool { return x >= 10 && x < 20 && y >= 5 && y < 9 })
		}},
		{"grid", "DELETE FROM grid WHERE c = 3", func(g *ngrid) *ngrid {
			return g.delete(func(x, y int64) bool { c := g.at(x, y)[2]; return !c.null && c.f == 3 })
		}},
		{"grid", "DELETE FROM grid WHERE x < 50 AND a > 3000", func(g *ngrid) *ngrid {
			return g.delete(func(x, y int64) bool { a := g.at(x, y)[0]; return x < 50 && !a.null && a.f > 3000 })
		}},
		// One whole line goes: everything above moves down, the holes
		// punched at x = 3 stay holes, the top line holds the defaults.
		{"grid", "DELETE FROM grid WHERE x = 40", func(g *ngrid) *ngrid {
			return g.delete(func(x, _ int64) bool { return x == 40 })
		}},
		{"holes", "DELETE FROM holes WHERE y >= 90 OR (x = 7 AND y < 12)", func(g *ngrid) *ngrid {
			return g.delete(func(x, y int64) bool { return y >= 90 || x == 7 && y < 12 })
		}},
		{"holes", "DELETE FROM holes WHERE q IS NULL AND x >= 60", func(g *ngrid) *ngrid {
			return g.delete(func(x, y int64) bool { return g.at(x, y)[1].null && x >= 60 })
		}},
	}
}

// TestDMLMatchesNaive runs the DML shapes in order, through kernels and
// through the interpreter, and after each compares the whole target
// array with the naive grid.
func TestDMLMatchesNaive(t *testing.T) {
	for _, vec := range []bool{true, false} {
		db := diffDB(t, "")
		db.Vectorize(vec)
		grids := map[string]*ngrid{}
		for name, def := range map[string][]nval{"grid": {num(0), num(1), nnull}, "holes": {nnull, nnull}} {
			arr, _ := db.LookupArray(name)
			grids[name] = readGrid(arr, diffSide, def)
		}
		for _, s := range dmlShapes() {
			db.MustExec(s.sql)
			grids[s.arr] = s.naive(grids[s.arr])
			arr, _ := db.LookupArray(s.arr)
			if d := grids[s.arr].diff(arr); d != "" {
				t.Fatalf("vectorized=%v, after %s: %s", vec, s.sql, d)
			}
		}
	}
}
