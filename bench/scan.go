package main

import (
	"context"
	"fmt"

	"repro/sciql"
)

// skySide is the side of the sky array at the committed scale: 1024 x
// 1024 cells of (FLOAT, FLOAT, INTEGER), 24 MB of attribute data, larger
// than the reference box's 4 MiB L2.
const skySide = 1024

// scanWorkload is scan_analytics: four read-only queries over sky, one
// per query class, the same four every op.
type scanWorkload struct {
	readOnly
	p   params
	sky sky
}

func newScan(p params) *scanWorkload {
	r := &rng{s: uint64(p.seed)}
	w := &scanWorkload{p: p, sky: newSky(r, skySide/p.shrink)}
	k1, r1 := r.odd(3, 63), r.in(0, 19)
	k2, r2 := r.odd(3, 63), r.in(0, 6)
	k3, r3 := r.odd(3, 63), r.in(0, 4)
	tb := bMod/2 + r.in(0, 999)
	t := w.sky.zoneThreshold(r)
	w.stmts = []stmt{
		{class: "filter", sql: fmt.Sprintf(
			`SELECT x, y, a + b AS s FROM sky WHERE MOD(x * %d + y + %d, 20) < 7 AND MOD(x + y * %d + %d, 7) <> 0`, k1, r1, k2, r2)},
		{class: "agg", sql: fmt.Sprintf(
			`SELECT SUM(a), AVG(b), COUNT(*) FROM sky WHERE MOD(x * %d + y + %d, 5) < 2 AND b < %d`, k3, r3, tb)},
		{class: "zonemap", sql: zoneSQL(t)},
		{class: "groupby", sql: `SELECT c, COUNT(*), SUM(b), MIN(a), MAX(a) FROM sky GROUP BY c`},
	}

	// The oracle: one pass over the formulas, no engine involved.
	s := w.sky
	var filter, zone check
	var sumA, sumB float64
	var n int64
	type group struct{ n, sumB, minA, maxA float64 }
	groups := make(map[float64]*group)
	for x := int64(0); x < s.side; x++ {
		for y := int64(0); y < s.side; y++ {
			a, b, c := s.a(x, y), s.b(x, y), s.c(x, y)
			if (x*k1+y+r1)%20 < 7 && (x+y*k2+r2)%7 != 0 {
				filter.add(float64(x), float64(y), a+b)
			}
			if (x*k3+y+r3)%5 < 2 && b < float64(tb) {
				sumA += a
				sumB += b
				n++
			}
			if a < float64(t) {
				zone.add(float64(x), float64(y), a)
			}
			g := groups[c]
			if g == nil {
				g = &group{minA: a, maxA: a}
				groups[c] = g
			}
			g.n++
			g.sumB += b
			g.minA, g.maxA = min(g.minA, a), max(g.maxA, a)
		}
	}
	var agg, grp check
	agg.add(sumA, sumB/float64(n), float64(n))
	for c, g := range groups {
		grp.add(c, g.n, g.sumB, g.minA, g.maxA)
	}
	w.stmts[0].want, w.stmts[1].want, w.stmts[2].want, w.stmts[3].want = filter, agg, zone, grp
	return w
}

// loadSky creates and fills sky on a fresh database and runs the zone-map
// query once, which builds the lazy per-chunk statistics.
func loadSky(ctx context.Context, db *sciql.DB, s sky, zoneSQL string) error {
	if err := load(ctx, db, s.ddl("sky", false)...); err != nil {
		return err
	}
	return load(ctx, db, zoneSQL)
}

func (w *scanWorkload) setup(ctx context.Context) error {
	w.d = sciql.Open()
	w.d.Parallelism(w.p.workers)
	return loadSky(ctx, w.d, w.sky, w.stmts[2].sql)
}

func (w *scanWorkload) cells() int64 { return w.sky.cells() }
