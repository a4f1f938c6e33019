package main

import (
	"context"
	"fmt"

	"repro/sciql"
)

// Sides of the structural arrays at the committed scale, sized at the
// parent commit so that sliding tiling, distinct tiling and the join each
// take about a third of the cycle. The four arrays together hold under
// 6 MB, close to the 4 MiB L2 and far inside the shared L3.
const (
	slidingSide  = 192
	distinctSide = 320
	joinSide     = 384
)

// plane is a one-attribute square array: v = MOD(x*p + y*q + r, 1021).
type plane struct {
	name, attr string
	side       int64
	p, q, r    int64
}

func newPlane(rg *rng, name, attr string, side int64) plane {
	return plane{name: name, attr: attr, side: side, p: rg.odd(1000, 9999), q: rg.odd(100000, 199999), r: rg.in(0, 999)}
}

func (p plane) v(x, y int64) float64 { return float64((x*p.p + y*p.q + p.r) % 1021) }

func (p plane) ddl() []string {
	return []string{
		fmt.Sprintf(`CREATE ARRAY %s (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], %s FLOAT DEFAULT 0.0)`,
			p.name, p.side, p.side, p.attr),
		fmt.Sprintf(`UPDATE %s SET %s = MOD(x * %d + y * %d + %d, 1021)`, p.name, p.attr, p.p, p.q, p.r),
	}
}

// structuralWorkload is structural_join: the paper's signature
// operations, the same three statements every op.
type structuralWorkload struct {
	readOnly
	p            params
	sky          sky
	zoneSQL      string
	m, t, lh, rh plane
}

func newStructural(p params) *structuralWorkload {
	r := &rng{s: uint64(p.seed)}
	w := &structuralWorkload{p: p, sky: newSky(r, skySide/p.shrink)}
	w.zoneSQL = zoneSQL(w.sky.zoneThreshold(r))
	w.m = newPlane(r, "m", "v", slidingSide/p.shrink)
	w.t = newPlane(r, "t", "v", distinctSide/p.shrink)
	w.lh = newPlane(r, "lhs", "v", joinSide/p.shrink)
	w.rh = newPlane(r, "rhs", "s", joinSide/p.shrink)

	var sliding, distinct, join check
	for x := int64(0); x < w.m.side; x++ {
		for y := int64(0); y < w.m.side; y++ {
			var sum, n float64
			for i := max(x-1, 0); i < min(x+2, w.m.side); i++ {
				for j := max(y-1, 0); j < min(y+2, w.m.side); j++ {
					sum += w.m.v(i, j)
					n++
				}
			}
			sliding.add(float64(x), float64(y), sum/n, n)
		}
	}
	for x := int64(0); x < w.t.side; x += 4 {
		for y := int64(0); y < w.t.side; y += 4 {
			var sum, hi float64
			for i := x; i < x+4; i++ {
				for j := y; j < y+4; j++ {
					v := w.t.v(i, j)
					sum += v
					hi = max(hi, v)
				}
			}
			distinct.add(float64(x), float64(y), sum, hi)
		}
	}
	for x := int64(0); x < w.lh.side; x++ {
		for y := int64(0); y < w.lh.side; y++ {
			join.add(float64(x), float64(y), w.lh.v(x, y)+w.rh.v(x, y))
		}
	}
	w.stmts = []stmt{
		{"tile_sliding", `SELECT [x], [y], AVG(v), COUNT(*) FROM m GROUP BY m[x-1:x+2][y-1:y+2]`, sliding},
		{"tile_distinct", `SELECT [x], [y], SUM(v), MAX(v) FROM t GROUP BY DISTINCT t[x:x+4][y:y+4]`, distinct},
		{"join", `SELECT l.x, l.y, l.v + r.s AS e FROM lhs AS l JOIN rhs AS r ON l.x = r.x AND l.y = r.y`, join},
	}
	return w
}

func (w *structuralWorkload) setup(ctx context.Context) error {
	w.d = sciql.Open()
	w.d.Parallelism(w.p.workers)
	if err := loadSky(ctx, w.d, w.sky, w.zoneSQL); err != nil {
		return err
	}
	for _, p := range []plane{w.m, w.t, w.lh, w.rh} {
		if err := load(ctx, w.d, p.ddl()...); err != nil {
			return err
		}
	}
	return nil
}

func (w *structuralWorkload) cells() int64 {
	return w.sky.cells() + w.m.side*w.m.side + w.t.side*w.t.side + 2*w.lh.side*w.lh.side
}
