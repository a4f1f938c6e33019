package sciql

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// This file is the history checker of the write path: seeded random
// histories over two or three sessions — transactions, autocommit
// statements and cursors that stay open across other sessions' writes —
// replayed statement by statement against a sequential Go model. The
// model is the read/update/rollback reference semantics (DB-nets,
// PAPERS.md): a committed state with one version per array, per
// transaction a snapshot of it taken at BEGIN plus the set of arrays
// written, first-committer-wins per array at COMMIT and a rebase of
// disjoint writers onto whatever committed in between. It decides every
// row of every read and the outcome of every COMMIT; it shares no code
// with the engine.

var historySeed = flag.Int64("history.seed", 0, "seed of the first TestHistory history of every configuration (0: taken from the clock)")

const (
	histSide  = 72 // 5184 cells: two segments, above the chunked-scan gate
	histSteps = 120
)

// hstate is one database state: the arrays and, for the committed
// state, the version of each.
type hstate struct {
	arrs map[string]*ngrid // cells are (v FLOAT, w INTEGER)
	vers map[string]int
}

func (s *hstate) clone() *hstate {
	out := &hstate{arrs: make(map[string]*ngrid, len(s.arrs)), vers: make(map[string]int, len(s.vers))}
	for k, a := range s.arrs {
		out.arrs[k] = a.clone()
	}
	for k, v := range s.vers {
		out.vers[k] = v
	}
	return out
}

// hbox is the dimension predicate x0 <= x < x1 AND y0 <= y < y1.
type hbox struct{ x0, x1, y0, y1 int64 }

func (b hbox) sql() string {
	return fmt.Sprintf("x >= %d AND x < %d AND y >= %d AND y < %d", b.x0, b.x1, b.y0, b.y1)
}

func (b hbox) has(x, y int64) bool { return x >= b.x0 && x < b.x1 && y >= b.y0 && y < b.y1 }

// hwrite is one generated write: its SQL and its effect on the model.
type hwrite struct {
	sql   string
	arr   string
	apply func(view *hstate)
}

// hsession is one connection and what the model knows about it.
type hsession struct {
	conn  *Conn
	tx    *Tx
	view  *hstate        // the transaction's snapshot plus its own writes
	base  map[string]int // array versions at BEGIN
	wrote map[string]bool
}

// hcursor is a cursor opened earlier and the rows it must still return.
type hcursor struct {
	rows *Rows
	sql  string
	want string
}

type history struct {
	t         *testing.T
	r         *rand.Rand
	db        *DB
	committed *hstate
	sessions  []*hsession
	cursors   []hcursor
	log       []string
}

func (h *history) failf(format string, args ...any) {
	h.t.Helper()
	tail := h.log
	if len(tail) > 25 {
		tail = tail[len(tail)-25:]
	}
	h.t.Fatalf("%s\nlast statements:\n  %s", fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}

// mutable lists the arrays histories write; src is only read.
var histMutable = []string{"hn", "hd"}

func newHistory(t *testing.T, seed int64, scheme string, par int) *history {
	h := &history{t: t, r: rand.New(rand.NewSource(seed)), db: Open()}
	h.db.Parallelism(par)
	if scheme != "" {
		for _, name := range []string{"hn", "hd", "src"} {
			h.db.SetStorageHint(name, scheme, 16)
		}
	}
	dims := fmt.Sprintf("x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d]", histSide, histSide)
	h.db.MustExec("CREATE ARRAY hn (" + dims + ", v FLOAT, w INTEGER)")
	h.db.MustExec("CREATE ARRAY hd (" + dims + ", v FLOAT DEFAULT 0.0, w INTEGER DEFAULT 0)")
	h.db.MustExec("CREATE ARRAY src (" + dims + ", v FLOAT, w INTEGER)")
	h.db.MustExec(fmt.Sprintf("UPDATE hn SET v = x * %d + y, w = MOD(x + y, 7) WHERE MOD(x * 5 + y, 9) <> 0", histSide))
	h.db.MustExec(fmt.Sprintf("UPDATE hd SET v = y * %d + x, w = MOD(x * 3 + y, 5)", histSide))
	h.db.MustExec("UPDATE src SET v = 100000 + x * 3 + y, w = MOD(x + 2 * y, 11) WHERE MOD(x + y, 4) <> 1")
	hole := []nval{nnull, nnull}
	hn, hd, src := newGrid(histSide, hole), newGrid(histSide, []nval{num(0), num(0)}), newGrid(histSide, hole)
	for x := int64(0); x < histSide; x++ {
		for y := int64(0); y < histSide; y++ {
			if (x*5+y)%9 != 0 {
				copy(hn.at(x, y), []nval{num(float64(x*histSide + y)), num(float64((x + y) % 7))})
			}
			copy(hd.at(x, y), []nval{num(float64(y*histSide + x)), num(float64((x*3 + y) % 5))})
			if (x+y)%4 != 1 {
				copy(src.at(x, y), []nval{num(float64(100000 + x*3 + y)), num(float64((x + 2*y) % 11))})
			}
		}
	}
	h.committed = &hstate{
		arrs: map[string]*ngrid{"hn": hn, "hd": hd, "src": src},
		vers: map[string]int{"hn": 0, "hd": 0, "src": 0},
	}
	for i, n := 0, 2+h.r.Intn(2); i < n; i++ {
		conn, err := h.db.Conn(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		h.sessions = append(h.sessions, &hsession{conn: conn})
	}
	return h
}

func (h *history) close() {
	for _, c := range h.cursors {
		c.rows.Close()
	}
	for _, s := range h.sessions {
		s.conn.Close()
	}
	h.db.Close()
}

// box draws a random box; narrow boxes stay inside every line, wide
// ones may cover whole lines of either dimension.
func (h *history) box(wide bool) hbox {
	side := func() (int64, int64) {
		if wide && h.r.Intn(3) == 0 {
			return 0, histSide
		}
		lo := h.r.Int63n(histSide - 1)
		return lo, lo + 1 + h.r.Int63n(min(histSide-1-lo, 24))
	}
	var b hbox
	b.x0, b.x1 = side()
	b.y0, b.y1 = side()
	return b
}

// each visits every covered cell of a inside b.
func (b hbox) each(a *ngrid, fn func(x, y int64, c []nval)) {
	for x := max(b.x0, 0); x < min(b.x1, histSide); x++ {
		for y := max(b.y0, 0); y < min(b.y1, histSide); y++ {
			fn(x, y, a.at(x, y))
		}
	}
}

// write draws one write statement.
func (h *history) write() hwrite {
	arr := histMutable[h.r.Intn(len(histMutable))]
	b := h.box(false)
	switch k := h.r.Intn(9); {
	case k < 2:
		d := float64(1 + h.r.Intn(9))
		return hwrite{fmt.Sprintf("UPDATE %s SET v = v + %g WHERE %s", arr, d, b.sql()), arr, func(s *hstate) {
			b.each(s.arrs[arr], func(_, _ int64, c []nval) {
				if !c[0].null {
					c[0].f += d
				}
			})
		}}
	case k < 4:
		// Sequential SETs that fill holes; the second reads the first.
		v, m, r := float64(h.r.Intn(500)), int64(2+h.r.Intn(4)), int64(h.r.Intn(2))
		return hwrite{fmt.Sprintf("UPDATE %s SET v = %g + x, w = v * 2 - y WHERE %s AND MOD(x + y, %d) = %d", arr, v, b.sql(), m, r), arr, func(s *hstate) {
			b.each(s.arrs[arr], func(x, y int64, c []nval) {
				if (x+y)%m == r {
					c[0] = num(v + float64(x))
					c[1] = num(c[0].f*2 - float64(y))
				}
			})
		}}
	case k == 4 && arr == "hn":
		// Punch holes, in hn only: hd stays dense.
		set := "v = NULL, w = NULL"
		if h.r.Intn(2) == 0 {
			set = "w = NULL"
		}
		return hwrite{fmt.Sprintf("UPDATE hn SET %s WHERE %s", set, b.sql()), arr, func(s *hstate) {
			b.each(s.arrs[arr], func(_, _ int64, c []nval) {
				if c[1] = nnull; set != "w = NULL" {
					c[0] = nnull
				}
			})
		}}
	case k < 6:
		// Attribute predicate only: no pushdown, holes never match.
		lim := float64(h.r.Intn(histSide * histSide))
		return hwrite{fmt.Sprintf("UPDATE %s SET w = w + 1 WHERE v < %g", arr, lim), arr, func(s *hstate) {
			hbox{0, histSide, 0, histSide}.each(s.arrs[arr], func(_, _ int64, c []nval) {
				if !c[0].null && c[0].f < lim && !c[1].null {
					c[1].f++
				}
			})
		}}
	case k < 7:
		if h.r.Intn(3) == 0 {
			b = h.box(true)
		}
		return hwrite{fmt.Sprintf("DELETE FROM %s WHERE %s", arr, b.sql()), arr, func(s *hstate) { s.arrs[arr] = s.arrs[arr].delete(b.has) }}
	default:
		from := []string{"src", "hn", "hd"}[h.r.Intn(3)]
		if from == arr {
			from = "src"
		}
		return hwrite{fmt.Sprintf("INSERT INTO %s SELECT [x], [y], v, w FROM %s WHERE %s", arr, from, b.sql()), arr, func(s *hstate) {
			b.each(s.arrs[from], func(x, y int64, c []nval) {
				if !isHole(c) {
					copy(s.arrs[arr].at(x, y), c)
				}
			})
		}}
	}
}

// read draws one SELECT and the rows the given state must return.
func (h *history) read(s *hstate) (sql, want string) {
	arr := []string{"hn", "hd", "src"}[h.r.Intn(3)]
	a := s.arrs[arr]
	if h.r.Intn(2) == 0 {
		b := h.box(true)
		var cnt, cntV, sumV, sumW float64
		anyV, anyW := false, false
		b.each(a, func(_, _ int64, c []nval) {
			if isHole(c) {
				return
			}
			cnt++
			if !c[0].null {
				cntV, sumV, anyV = cntV+1, sumV+c[0].f, true
			}
			if !c[1].null {
				sumW, anyW = sumW+c[1].f, true
			}
		})
		row := []nval{num(cnt), num(cntV), nnull, nnull}
		if anyV {
			row[2] = num(sumV)
		}
		if anyW {
			row[3] = num(sumW)
		}
		return fmt.Sprintf("SELECT COUNT(*), COUNT(v), SUM(v), SUM(w) FROM %s WHERE %s", arr, b.sql()), histLine(row)
	}
	b := h.box(false)
	var lines []string
	b.each(a, func(x, y int64, c []nval) {
		if !isHole(c) {
			lines = append(lines, histLine([]nval{num(float64(x)), num(float64(y)), c[0], c[1]}))
		}
	})
	sort.Strings(lines)
	return fmt.Sprintf("SELECT x, y, v, w FROM %s WHERE %s", arr, b.sql()), strings.Join(lines, "\n")
}

func histLine(row []nval) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// step runs one random action of one random session.
func (h *history) step() {
	s := h.sessions[h.r.Intn(len(h.sessions))]
	id := fmt.Sprintf("s%d", indexOf(h.sessions, s))
	view := h.committed
	if s.tx != nil {
		view = s.view
	}
	switch k := h.r.Intn(20); {
	case k < 2 && s.tx == nil:
		h.log = append(h.log, id+": BEGIN")
		tx, err := s.conn.Begin()
		if err != nil {
			h.failf("%s: BEGIN: %v", id, err)
		}
		s.tx, s.view, s.wrote = tx, h.committed.clone(), map[string]bool{}
		s.base = s.view.vers
	case k < 2:
		if h.r.Intn(4) == 0 {
			h.log = append(h.log, id+": ROLLBACK")
			if err := s.tx.Rollback(); err != nil {
				h.failf("%s: ROLLBACK: %v", id, err)
			}
			s.tx = nil
			return
		}
		h.log = append(h.log, id+": COMMIT")
		conflict := ""
		for arr := range s.wrote {
			if h.committed.vers[arr] != s.base[arr] {
				conflict = arr
			}
		}
		err := s.tx.Commit()
		s.tx = nil
		switch {
		case conflict != "" && !errors.Is(err, ErrTxConflict):
			h.failf("%s: COMMIT returned %v, the model says %s was committed first by another writer", id, err, conflict)
		case conflict == "" && err != nil:
			h.failf("%s: COMMIT of a transaction that wrote %v: %v", id, s.wrote, err)
		case conflict == "":
			// Rebase: the transaction's arrays replace the committed
			// ones, every other array keeps what committed meanwhile.
			for arr := range s.wrote {
				h.committed.arrs[arr] = s.view.arrs[arr]
				h.committed.vers[arr]++
			}
		}
	case k < 9:
		w := h.write()
		h.log = append(h.log, id+": "+w.sql)
		if _, err := s.conn.Exec(w.sql); err != nil {
			h.failf("%s: %s: %v", id, w.sql, err)
		}
		w.apply(view)
		if s.tx != nil {
			s.wrote[w.arr] = true
		} else {
			h.committed.vers[w.arr]++
		}
	case k < 11 && s.tx == nil && len(h.cursors) < 3:
		// A cursor of its own implicit session: it must return the rows
		// of the state committed now, whenever it is drained.
		sql, want := h.read(h.committed)
		h.log = append(h.log, "cursor: "+sql)
		rows, err := h.db.QueryContext(context.Background(), sql)
		if err != nil {
			h.failf("open cursor %s: %v", sql, err)
		}
		h.cursors = append(h.cursors, hcursor{rows, sql, want})
	case k < 13 && len(h.cursors) > 0:
		i := h.r.Intn(len(h.cursors))
		c := h.cursors[i]
		h.cursors = append(h.cursors[:i], h.cursors[i+1:]...)
		h.log = append(h.log, "drain: "+c.sql)
		rs, err := c.rows.materialize()
		if err != nil {
			h.failf("drain %s: %v", c.sql, err)
		}
		if got := numericLines(rs); got != c.want {
			h.failf("cursor opened before later writes, %s:\n%s", c.sql, firstDiff(got, c.want))
		}
	default:
		sql, want := h.read(view)
		h.log = append(h.log, id+": "+sql)
		rs, err := s.conn.Query(sql)
		if err != nil {
			h.failf("%s: %s: %v", id, sql, err)
		}
		if got := numericLines(rs); got != want {
			h.failf("%s (in tx: %v): %s:\n%s", id, s.tx != nil, sql, firstDiff(got, want))
		}
	}
}

func indexOf(ss []*hsession, s *hsession) int {
	for i := range ss {
		if ss[i] == s {
			return i
		}
	}
	return -1
}

// finish ends every open transaction and cursor and compares every
// array, cell by cell, with the committed model.
func (h *history) finish() {
	for _, s := range h.sessions {
		if s.tx != nil {
			h.log = append(h.log, "end: ROLLBACK")
			if err := s.tx.Rollback(); err != nil {
				h.failf("final ROLLBACK: %v", err)
			}
			s.tx = nil
		}
	}
	for name, a := range h.committed.arrs {
		arr, ok := h.db.LookupArray(name)
		if !ok {
			h.failf("array %s is gone", name)
		}
		if d := a.diff(arr); d != "" {
			h.failf("%s: %s", name, d)
		}
	}
}

// TestHistory replays random histories on every storage scheme, serial
// and parallel. Each configuration runs histories with consecutive
// seeds until its time box closes (one history with -short); the first
// seed is logged and printed with any failure, and -history.seed
// replays it.
func TestHistory(t *testing.T) {
	first := *historySeed
	if first == 0 {
		first = time.Now().UnixNano() % 1_000_000
	}
	box := 1500 * time.Millisecond
	if testing.Short() {
		box = 0
	}
	for _, scheme := range []string{"", "virtual", "dorder", "slab", "tabular"} {
		for _, par := range []int{1, 4} {
			name := scheme
			if name == "" {
				name = "adaptive"
			}
			t.Run(fmt.Sprintf("%s/par=%d", name, par), func(t *testing.T) {
				deadline := time.Now().Add(box)
				for seed := first; seed == first || time.Now().Before(deadline); seed++ {
					t.Logf("history seed %d (replay with -history.seed=%d)", seed, seed)
					h := newHistory(t, seed, scheme, par)
					h.log = append(h.log, fmt.Sprintf("-history.seed=%d scheme=%q par=%d", seed, scheme, par))
					for i := 0; i < histSteps; i++ {
						h.step()
					}
					h.finish()
					h.close()
				}
			})
		}
	}
}
