package sciql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// diffSchemes is the full storage matrix the differential oracle runs
// over: adaptive (no hint) plus every forced scheme.
var diffSchemes = []string{"", "virtual", "slab", "tabular", "dorder"}

// diffDB builds a 96x96 grid (9216 cells, above the chunked-parallel
// gate) with two dense float attributes and one mostly-NULL integer
// attribute, so generated queries exercise promotion, NULL semantics
// and holes under every storage scheme — and a second array, holes,
// declared without DEFAULTs, loaded in part and partly deleted again,
// so a seventh of its cells (and more, after the DELETE) are holes
// scattered through every chunk and bitmap word.
func diffDB(t testing.TB, scheme string) *DB {
	t.Helper()
	db := Open()
	if scheme != "" {
		db.SetStorageHint("grid", scheme, 16)
		db.SetStorageHint("holes", scheme, 16)
	}

	db.MustExec(`CREATE ARRAY grid (x INTEGER DIMENSION[96], y INTEGER DIMENSION[96],
		a FLOAT DEFAULT 0.0, b FLOAT DEFAULT 1.0, c INTEGER)`)
	db.MustExec(`UPDATE grid SET a = x * 96 + y`)
	db.MustExec(`UPDATE grid SET b = x - y`)
	db.MustExec(`UPDATE grid SET c = MOD(x * 7 + y * 3, 13) WHERE MOD(x + y, 4) = 0`)
	db.MustExec(`CREATE ARRAY holes (x INTEGER DIMENSION[96], y INTEGER DIMENSION[96], p FLOAT, q INTEGER)`)
	db.MustExec(`INSERT INTO holes SELECT x, y, a / 4, MOD(x + y * 5, 11) FROM grid WHERE MOD(x * 5 + y, 7) <> 0`)
	db.MustExec(`UPDATE holes SET q = NULL WHERE MOD(x + y, 5) = 0`)
	db.MustExec(`DELETE FROM holes WHERE MOD(x, 9) = 4 AND y > 30`)
	return db
}

// queryGen derives SciQL SELECTs from a fixed-seed PRNG. Every query
// it emits is valid over the diffDB grid; the shapes cover arithmetic
// and NULL-bearing projections, slice + predicate scans, BETWEEN/IN,
// value grouping with the full aggregate set, ORDER BY and LIMIT.
type queryGen struct{ r *rand.Rand }

func (g *queryGen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

// scalar yields an expression over the grid's columns. Division and
// MOD keep randomly chosen nonzero literals on the right so NULLs come
// from the c attribute, not from accidental /0 everywhere.
func (g *queryGen) scalar(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(6) {
		case 0:
			return "x"
		case 1:
			return "y"
		case 2:
			return "a"
		case 3:
			return "b"
		case 4:
			return "c"
		default:
			return fmt.Sprintf("%d", g.r.Intn(97))
		}
	}
	l, r := g.scalar(depth-1), g.scalar(depth-1)
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, r)
	case 3:
		return fmt.Sprintf("(%s / %d)", l, 1+g.r.Intn(9))
	default:
		return fmt.Sprintf("MOD(%s, %d)", l, 2+g.r.Intn(11))
	}
}

// predicate yields a WHERE-clause boolean over the grid.
func (g *queryGen) predicate(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return fmt.Sprintf("%s %s %s", g.scalar(1), g.pick("<", "<=", ">", ">=", "=", "<>"), g.scalar(1))
		case 1:
			lo := g.r.Intn(60)
			return fmt.Sprintf("%s BETWEEN %d AND %d", g.pick("x", "y", "a", "c"), lo, lo+g.r.Intn(40))
		case 2:
			return fmt.Sprintf("%s IN (%d, %d, %d)", g.pick("x", "y", "c"), g.r.Intn(16), g.r.Intn(16), g.r.Intn(16))
		case 3:
			return fmt.Sprintf("c IS %sNULL", g.pick("", "NOT "))
		default:
			return fmt.Sprintf("MOD(x * %d + y, %d) = %d", 1+g.r.Intn(31), 3+g.r.Intn(9), g.r.Intn(3))
		}
	}
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", g.predicate(depth-1), g.predicate(depth-1))
	case 1:
		return fmt.Sprintf("(%s OR %s)", g.predicate(depth-1), g.predicate(depth-1))
	default:
		return fmt.Sprintf("NOT (%s)", g.predicate(depth-1))
	}
}

// from yields the FROM item: the whole grid or a random (possibly
// stepped) slice of it.
func (g *queryGen) from() string {
	if g.r.Intn(2) == 0 {
		return "grid"
	}
	dim := func() string {
		switch g.r.Intn(3) {
		case 0:
			return "[*]"
		case 1:
			lo := g.r.Intn(48)
			return fmt.Sprintf("[%d:%d]", lo, lo+1+g.r.Intn(48))
		default:
			lo := g.r.Intn(32)
			return fmt.Sprintf("[%d:%d:%d]", lo, lo+8+g.r.Intn(64), 2+g.r.Intn(6))
		}
	}
	return "grid" + dim() + dim()
}

// query yields one complete SELECT. Scan-shaped queries project x and
// y first (so cross-scheme sorting has a stable key) plus random
// expressions; aggregate-shaped queries group on MOD keys and order by
// the key. LIMIT only rides on fully ordered queries, so the chosen
// rows cannot depend on scan order.
func (g *queryGen) query() string {
	if g.r.Intn(4) == 0 { // aggregate shape
		k := 2 + g.r.Intn(7)
		aggs := []string{"COUNT(*)"}
		for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
			aggs = append(aggs, fmt.Sprintf("%s(%s)", g.pick("SUM", "AVG", "MIN", "MAX", "COUNT"), g.scalar(1)))
		}
		q := fmt.Sprintf("SELECT MOD(x, %d) AS k0, %s FROM %s", k, strings.Join(aggs, ", "), g.from())
		if g.r.Intn(2) == 0 {
			q += " WHERE " + g.predicate(2)
		}
		return q + fmt.Sprintf(" GROUP BY MOD(x, %d) ORDER BY k0", k)
	}
	items := []string{"x", "y"}
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		items = append(items, fmt.Sprintf("%s AS e%d", g.scalar(2), i))
	}
	q := fmt.Sprintf("SELECT %s FROM %s", strings.Join(items, ", "), g.from())
	if g.r.Intn(4) != 0 {
		q += " WHERE " + g.predicate(2)
	}
	if g.r.Intn(3) == 0 {
		q += " ORDER BY x, y"
		if g.r.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(50))
		}
	}
	return q
}

// aggQuery yields a single-array aggregation: plain aggregates or
// GROUP BY on up to two keys (a nullable attribute among them, so a
// NULL group exists), optionally with HAVING, over the dense grid or
// the holes array, over the whole array or a FROM slice, with
// dimension predicates (which push down into the scan) and attribute
// predicates in WHERE. Aggregate arguments stay exactly representable
// (integers and quarters), so sums agree whatever order a scheme
// scans in. Half the grouped queries carry no ORDER BY, pinning
// first-encounter group order across execution modes; LIMIT only
// rides on ORDER BY over the full key.
func (g *queryGen) aggQuery() string {
	arr, attrs, nullable := "grid", []string{"a", "b", "c"}, "c"
	if g.r.Intn(2) == 0 {
		arr, attrs, nullable = "holes", []string{"p", "q"}, "q"
	}
	arg := func() string {
		c := attrs[g.r.Intn(len(attrs))]
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("(%s + x)", c)
		case 1:
			return fmt.Sprintf("(%s * 2 - y)", c)
		default:
			return c
		}
	}
	aggs := []string{"COUNT(*)"}
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		aggs = append(aggs, fmt.Sprintf("%s(%s)", g.pick("SUM", "AVG", "MIN", "MAX", "COUNT"), arg()))
	}
	var keys []string
	for i, n := 0, g.r.Intn(3); i < n; i++ {
		switch g.r.Intn(4) {
		case 0:
			keys = append(keys, nullable)
		case 1:
			keys = append(keys, fmt.Sprintf("MOD(x + y, %d)", 2+g.r.Intn(5)))
		case 2:
			keys = append(keys, fmt.Sprintf("(y / %d)", 8+g.r.Intn(40)))
		default:
			keys = append(keys, "x")
		}
	}
	items := make([]string, 0, len(keys)+len(aggs))
	var names []string
	for i, k := range keys {
		names = append(names, fmt.Sprintf("k%d", i))
		items = append(items, fmt.Sprintf("%s AS k%d", k, i))
	}
	from := arr
	if g.r.Intn(3) == 0 {
		xl, yl := g.r.Intn(60), g.r.Intn(60)
		from = fmt.Sprintf("%s[%d:%d][%d:%d]", arr, xl, xl+5+g.r.Intn(60), yl, yl+5+g.r.Intn(60))
		if g.r.Intn(3) == 0 {
			from = fmt.Sprintf("%s[%d:%d:%d][*]", arr, xl, xl+20+g.r.Intn(40), 2+g.r.Intn(4))
		}
	}
	q := fmt.Sprintf("SELECT %s FROM %s", strings.Join(append(items, aggs...), ", "), from)
	var conds []string
	if g.r.Intn(2) == 0 {
		lo := g.r.Intn(70)
		conds = append(conds, g.pick(
			fmt.Sprintf("x >= %d AND x < %d", lo, lo+1+g.r.Intn(40)),
			fmt.Sprintf("y = %d", lo),
			fmt.Sprintf("y BETWEEN %d AND %d AND x > %d", lo, lo+g.r.Intn(30), g.r.Intn(50))))
	}
	if g.r.Intn(2) == 0 {
		conds = append(conds, g.pick(
			fmt.Sprintf("%s > %d", attrs[0], g.r.Intn(2000)),
			fmt.Sprintf("%s IS %sNULL", nullable, g.pick("", "NOT ")),
			fmt.Sprintf("MOD(x * %d + y, %d) < %d", 1+g.r.Intn(31), 3+g.r.Intn(9), 1+g.r.Intn(3)),
			fmt.Sprintf("(%s < %d OR %s = %d)", attrs[0], g.r.Intn(3000), nullable, g.r.Intn(11))))
	}
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(keys, ", ")
	}
	if g.r.Intn(3) == 0 {
		q += " HAVING " + g.pick(
			fmt.Sprintf("COUNT(*) > %d", g.r.Intn(40)),
			fmt.Sprintf("MIN(%s) IS NOT NULL", nullable),
			fmt.Sprintf("SUM(%s) < %d", attrs[0], 10000+g.r.Intn(200000)))
	}
	if len(keys) > 0 && g.r.Intn(2) == 0 {
		q += " ORDER BY " + strings.Join(names, ", ")
		if g.r.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(12))
		}
	}
	return q
}

// joinQuery yields a two-source hash-join SELECT. The right side is a
// small slice so the output stays bounded; every column is qualified,
// both because two sources are in scope and because the zone-map
// skipper only trusts qualified names under joins. Half the queries
// omit ORDER BY, pinning the join's deterministic output order
// (build-side choice, partitioning and probe merging must all
// reproduce the serial row order byte-for-byte).
func (g *queryGen) joinQuery() string {
	rxl, ryl := g.r.Intn(80), g.r.Intn(80)
	right := fmt.Sprintf("grid[%d:%d][%d:%d]", rxl, rxl+2+g.r.Intn(6), ryl, ryl+2+g.r.Intn(6))
	on := "l.x = r.x AND l.y = r.y"
	if g.r.Intn(3) == 0 {
		on = "l.y = r.y"
	}
	q := fmt.Sprintf(
		"SELECT l.x, l.y, r.x AS rx, r.y AS ry, (l.a + r.b) AS e0, r.c AS e1 FROM grid AS l JOIN %s AS r ON %s",
		right, on)
	switch g.r.Intn(3) {
	case 0:
		q += fmt.Sprintf(" WHERE l.a < %d", g.r.Intn(9216))
	case 1:
		q += fmt.Sprintf(" WHERE l.b >= %d AND r.c IS NOT NULL", g.r.Intn(60)-30)
	}
	if g.r.Intn(2) == 0 {
		q += " ORDER BY l.x, l.y, rx, ry"
	}
	return q
}

// diffQueries is the deterministic random query set: a fixed seed, so
// every run, every scheme and every engine configuration sees exactly
// the same SQL. After the scan shapes come hash-join shapes over the
// same grid, then the chunk-wise aggregation shapes, then the
// structural shapes the naive reference evaluator also checks
// (naive_test.go): tiling, and joins keyed on attributes.
func diffQueries() []string {
	g := &queryGen{r: rand.New(rand.NewSource(0x5c191))}
	out := make([]string, 0, 96)
	for len(out) < 24 {
		out = append(out, g.query())
	}
	for len(out) < 32 {
		out = append(out, g.joinQuery())
	}
	for len(out) < 64 {
		out = append(out, g.aggQuery())
	}
	for _, s := range tileShapes() {
		out = append(out, s.sql())
	}
	for _, j := range joinShapes() {
		out = append(out, j.sql())
	}
	return out
}

// sortedLines renders a result and sorts the rows, giving an
// order-insensitive fingerprint for cross-scheme comparison (schemes
// agree on the row set; ordering is only pinned within a scheme).
func sortedLines(rs *Result) string {
	lines := renderResult(rs)
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDifferentialRandomQueries is the engine's differential oracle:
// every query of diffQueries must render byte-identically across chunk
// skipping on/off × vectorized on/off × parallelism 1/4 within each
// storage scheme (the serial interpreted unskipped run is the
// reference), and the sorted row sets must agree across all five
// schemes. Run under -race in CI this also vets the chunk fan-out,
// kernel and partitioned-join paths for data races.
func TestDifferentialRandomQueries(t *testing.T) {
	queries := diffQueries()
	crossScheme := make(map[int]map[string]string) // query index -> scheme -> sorted rows
	for i := range queries {
		crossScheme[i] = make(map[string]string)
	}
	for _, scheme := range diffSchemes {
		name := scheme
		if name == "" {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			db := diffDB(t, scheme)
			for qi, q := range queries {
				db.Vectorize(false)
				db.Parallelism(1)
				db.ChunkSkip(false)
				ref, err := db.Query(q)
				if err != nil {
					t.Fatalf("reference %s: %v", q, err)
				}
				want := ref.String()
				for _, skip := range []bool{false, true} {
					for _, vec := range []bool{false, true} {
						for _, par := range []int{1, 4} {
							db.ChunkSkip(skip)
							db.Vectorize(vec)
							db.Parallelism(par)
							got, err := db.Query(q)
							if err != nil {
								t.Fatalf("skip=%v vec=%v par=%d %s: %v", skip, vec, par, q, err)
							}
							if got.String() != want {
								t.Errorf("skip=%v vec=%v par=%d differs for %s:\ngot:\n%s\nwant:\n%s",
									skip, vec, par, q, got.String(), want)
							}
						}
					}
				}
				crossScheme[qi][scheme] = sortedLines(ref)
			}
		})
	}
	// Cross-scheme: the row set of every query is a property of the
	// data, not of the physical layout.
	base := diffSchemes[0]
	for qi, q := range queries {
		want, ok := crossScheme[qi][base]
		if !ok {
			continue // scheme subtest failed before recording
		}
		for _, scheme := range diffSchemes[1:] {
			got, ok := crossScheme[qi][scheme]
			if !ok {
				continue
			}
			if got != want {
				t.Errorf("scheme %q disagrees with %q for %s:\ngot:\n%s\nwant:\n%s",
					scheme, base, q, got, want)
			}
		}
	}
}

// dmlDB is diffDB plus the arrays the DML shapes need beyond grid and
// holes: carved has a dimension CHECK (a fifth of its positions are not
// cells at all), capped a content CHECK that nullifies values, stepped
// sits on stepped dimensions that do not start at 0, and loose is
// unbounded (so only slab and tabular can be forced on it).
func dmlDB(t testing.TB, scheme string) *DB {
	t.Helper()
	db := diffDB(t, scheme)
	if scheme != "" {
		for _, name := range []string{"carved", "capped", "stepped"} {
			db.SetStorageHint(name, scheme, 16)
		}
		if scheme == "slab" || scheme == "tabular" {
			db.SetStorageHint("loose", scheme, 16)
		}
	}
	db.MustExec(`
		CREATE ARRAY carved (x INTEGER DIMENSION[40], y INTEGER DIMENSION[40] CHECK(MOD(x + y, 5) <> 0), v FLOAT DEFAULT 1.0, w INTEGER);
		CREATE ARRAY capped (x INTEGER DIMENSION[40], y INTEGER DIMENSION[40], v FLOAT DEFAULT 0.0 CHECK(v < 500), w INTEGER);
		CREATE ARRAY stepped (x INTEGER DIMENSION[0:200:5], y INTEGER DIMENSION[10:90:10], v FLOAT, w INTEGER);
		CREATE ARRAY loose (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT, w INTEGER);
		INSERT INTO stepped SELECT x * 5, 10 + y * 10, a, c FROM grid WHERE x < 40 AND y < 8 AND MOD(x + y, 4) <> 1;
		INSERT INTO loose SELECT x * 3 - 20, y * 2, a, c FROM grid WHERE x < 30 AND y < 30 AND MOD(x + y, 4) <> 1`)
	return db
}

// dmlStatements is the DML half of the differential suite: the shapes
// the naive evaluator also checks, then shapes on the arrays it cannot
// model — CHECK-nullified values, dimension-CHECK carve-outs, stepped
// and unbounded dimensions, array-reference targets and reads, and
// expressions the kernel compiler rejects — each naming the array it
// writes.
func dmlStatements() [][2]string {
	var out [][2]string
	for _, s := range dmlShapes() {
		out = append(out, [2]string{s.arr, s.sql})
	}
	return append(out, [][2]string{
		{"capped", `UPDATE capped SET v = x * 20 + y, w = v`},
		{"capped", `UPDATE capped SET v = v + 100 WHERE w IS NOT NULL AND x >= 10 AND x < 30`},
		{"carved", `UPDATE carved SET v = v + x, w = y`},
		{"carved", `UPDATE carved SET w = NULL, v = NULL WHERE x >= 5 AND x < 9`},
		{"carved", `DELETE FROM carved WHERE y >= 20 AND y < 25 AND v > 10`},
		{"carved", `DELETE FROM carved WHERE x = 17`},
		{"stepped", `UPDATE stepped SET v = x + y, w = 1 WHERE x >= 50 AND x < 120`},
		{"stepped", `UPDATE stepped SET w = w + 1 WHERE y = 30 OR w IS NULL`},
		{"stepped", `DELETE FROM stepped WHERE x >= 100 AND x < 150 AND y >= 40`},
		{"stepped", `DELETE FROM stepped WHERE y = 30`},
		{"loose", `UPDATE loose SET w = 7 WHERE w IS NULL`},
		{"loose", `UPDATE loose SET v = v + x WHERE x >= 10 AND x < 40`},
		{"loose", `DELETE FROM loose WHERE v < 500 AND y > 20`},
		{"loose", `DELETE FROM loose WHERE x = 10`},
		{"grid", `UPDATE grid SET a = CASE WHEN c IS NULL THEN -1 ELSE c END WHERE y < 48`},
		{"grid", `UPDATE grid SET grid[x][y].b = a + 1 WHERE x < 6`},
		{"holes", `UPDATE holes SET p = (SELECT MAX(a) FROM grid) WHERE x = 11 AND y < 20`},
		// Reads of the written array itself see pre-statement values in
		// every scheme, however differently each one cuts its batches.
		{"grid", `UPDATE grid SET a = grid[x-1][y].a + grid[x][y-1].a, b = grid[x-1][y-1].a WHERE x > 0 AND y > 0`},
	}...)
}

// TestDifferentialDML runs every DML statement on every storage
// scheme through the kernels and through the interpreter fallback
// (Vectorize(false)), at parallelism 1 and 4: after each statement the
// written array must render byte-identically in all four engines of a
// scheme, and its sorted cells must agree across the five schemes.
func TestDifferentialDML(t *testing.T) {
	stmts := dmlStatements()
	crossScheme := make([]map[string]string, len(stmts))
	for i := range crossScheme {
		crossScheme[i] = make(map[string]string)
	}
	type engine struct {
		vec bool
		par int
	}
	engines := []engine{{false, 1}, {true, 1}, {false, 4}, {true, 4}}
	for _, scheme := range diffSchemes {
		name := scheme
		if name == "" {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			dbs := make([]*DB, len(engines))
			for i, eng := range engines {
				dbs[i] = dmlDB(t, scheme)
				dbs[i].Vectorize(eng.vec)
				dbs[i].Parallelism(eng.par)
			}
			for si, st := range stmts {
				var want string
				for i, db := range dbs {
					if _, err := db.Exec(st[1]); err != nil {
						t.Fatalf("vec=%v par=%d %s: %v", engines[i].vec, engines[i].par, st[1], err)
					}
					rs := db.MustQuery("SELECT * FROM " + st[0])
					arr, _ := db.LookupArray(st[0])
					got := fmt.Sprintf("%d live\n%s", arr.Len(), rs)
					if i == 0 {
						want = got
						crossScheme[si][scheme] = sortedLines(rs)
						if rs.NumRows() == 0 {
							t.Errorf("%s leaves %s empty", st[1], st[0])
						}
					} else if got != want {
						t.Fatalf("vec=%v par=%d differs from the serial interpreter after %s:\ngot:\n%s\nwant:\n%s",
							engines[i].vec, engines[i].par, st[1], got, want)
					}
				}
			}
		})
	}
	base := diffSchemes[0]
	for si, st := range stmts {
		want, ok := crossScheme[si][base]
		for _, scheme := range diffSchemes[1:] {
			if got, ok2 := crossScheme[si][scheme]; ok && ok2 && got != want {
				t.Errorf("scheme %q disagrees with %q after %s:\n%s", scheme, base, st[1], firstDiff(got, want))
			}
		}
	}
}
