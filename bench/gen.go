package main

import (
	"fmt"
	"math"
)

// rng is splitmix64: the harness's own generator, so the inputs a seed
// produces do not depend on the Go release's math/rand.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// in returns a value in [lo, hi].
func (r *rng) in(lo, hi int64) int64 { return lo + int64(r.next()%uint64(hi-lo+1)) }

// odd returns an odd value in [lo, hi]; odd strides are coprime to the
// power-of-two array sides, so they enumerate coordinates without repeats.
func (r *rng) odd(lo, hi int64) int64 { return r.in(lo, hi) | 1 }

// bMod is the modulus of sky.b: a prime above any side, so b looks
// uniform whatever the coefficients.
const bMod = 1000003

// sky describes the 3-attribute array every workload loads. All values
// are integer-valued floats below 2^53, so SUM and AVG are exact in any
// summation order and the oracle can demand equality.
//
//	a = x*side + MOD(x*pa + y*qa + ra, side)   banded in x: zone maps can skip on a
//	b = MOD(x*pb + y*qb + rb, bMod)            uniform
//	c = MOD(x*pc + y*qc + rc, 16)              16 groups
type sky struct {
	side                               int64
	pa, qa, ra, pb, qb, rb, pc, qc, rc int64
}

func newSky(r *rng, side int64) sky {
	return sky{
		side: side,
		pa:   r.odd(1000, 9999), qa: r.odd(100000, 199999), ra: r.in(0, 999),
		pb: r.odd(10000, 99999), qb: r.odd(3, 999), rb: r.in(0, 999),
		pc: r.odd(3, 99), qc: r.odd(3, 99), rc: r.in(0, 15),
	}
}

func (s sky) a(x, y int64) float64 { return float64(x*s.side + (x*s.pa+y*s.qa+s.ra)%s.side) }
func (s sky) b(x, y int64) float64 { return float64((x*s.pb + y*s.qb + s.rb) % bMod) }
func (s sky) c(x, y int64) float64 { return float64((x*s.pc + y*s.qc + s.rc) % 16) }

func (s sky) cells() int64 { return s.side * s.side }

// ddl returns the CREATE ARRAY and the bulk-load UPDATE for an array of
// the sky shape called name. With holes the attributes have no DEFAULT,
// so a DELETE leaves holes instead of resetting cells to their defaults.
func (s sky) ddl(name string, holes bool) []string {
	attrs := `a FLOAT DEFAULT 0.0, b FLOAT DEFAULT 0.0, c INTEGER DEFAULT 0`
	if holes {
		attrs = `a FLOAT, b FLOAT, c INTEGER`
	}
	return []string{
		fmt.Sprintf(`CREATE ARRAY %s (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], %s)`, name, s.side, s.side, attrs),
		fmt.Sprintf(`UPDATE %s SET a = x * %d + MOD(x * %d + y * %d + %d, %d), b = MOD(x * %d + y * %d + %d, %d), c = MOD(x * %d + y * %d + %d, 16)`,
			name, s.side, s.pa, s.qa, s.ra, s.side, s.pb, s.qb, s.rb, bMod, s.pc, s.qc, s.rc),
	}
}

// zoneThreshold is the literal of the 1 %-selective `a < t` query: 1 % of
// a's range plus a seeded jitter below one row of the array.
func (s sky) zoneThreshold(r *rng) int64 {
	return s.cells()/100 + r.in(0, s.side/16)
}

// zoneSQL is that query. Every set-up runs it once: it builds the lazy
// per-chunk statistics.
func zoneSQL(t int64) string { return fmt.Sprintf(`SELECT x, y, a FROM sky WHERE a < %d`, t) }

// check is what the oracle expects of one statement: the row count and
// an order-independent checksum over every column of every row.
type check struct {
	rows int64
	sum  uint64
}

// add folds one row into the check. Columns are compared as float64 bit
// patterns, so INTEGER 3 and FLOAT 3.0 agree, as they do on the wire.
func (c *check) add(cols ...float64) {
	h := uint64(len(cols))
	for _, f := range cols {
		h = (h ^ math.Float64bits(f)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	c.rows++
	c.sum += h
}

// null stands for SQL NULL in a checksummed row.
var null = math.Float64frombits(0x7FF8DEAD00000000)
