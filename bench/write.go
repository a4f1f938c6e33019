package main

import (
	"context"
	"fmt"

	"repro/sciql"
)

// writeWorkload is write_mixed: one connection mutating sky, checked
// against a sequential shadow model (the read/update/rollback reference
// semantics of DB-nets, PAPERS.md).
//
// DELETE and re-INSERT run on plate, a quarter-side copy of the sky
// shape, not on sky itself: at the parent commit a DELETE rewrites the
// whole store (1.4 s on the 1M-cell sky), which would leave under ten ops
// in a run and bury every other class.
type writeWorkload struct {
	p          params
	sky, plate sky
	t          int64 // zone-map threshold
	slice      int64 // side of an updated slice: 64 at the committed scale
	region     int64 // side of the deleted region of plate: 16
	s1, o1     int64 // stride and offset of the autocommit slice
	s2, o2     int64 // ... of the transaction's slice
	s3, o3     int64 // ... of the deleted region
	zoneSQL    string
	plateSum   float64
	plateSQL   string
	d          *sciql.DB
	conn       *sciql.Conn
	ops        []writeOp
	shadow     [][]float64
}

// writeOp is one op's statements and the oracle's expectations.
type writeOp struct {
	snapshot, update, readBack  stmt
	txUpdate, txRead            stmt
	del, afterDel, ins, afterIn stmt
	zone                        stmt
}

// gridSide is the number of slice (and region) positions per dimension.
const gridSide = 16

func newWrite(p params) *writeWorkload {
	r := &rng{s: uint64(p.seed)}
	w := &writeWorkload{p: p, sky: newSky(r, skySide/p.shrink)}
	w.plate = newSky(r, w.sky.side/4)
	w.t = w.sky.zoneThreshold(r)
	w.slice, w.region = w.sky.side/gridSide, w.plate.side/gridSide
	w.s1, w.o1 = r.odd(3, 255), r.in(0, 255)
	w.s2, w.o2 = r.odd(3, 255), r.in(0, 255)
	w.s3, w.o3 = r.odd(3, 255), r.in(0, 255)
	w.zoneSQL = zoneSQL(w.t)
	w.plateSQL = `SELECT COUNT(*), SUM(a) FROM plate`
	return w
}

func (w *writeWorkload) setup(ctx context.Context) error {
	w.d = sciql.Open()
	w.d.Parallelism(w.p.workers)
	if err := loadSky(ctx, w.d, w.sky, w.zoneSQL); err != nil {
		return err
	}
	if err := load(ctx, w.d, append(w.plate.ddl("plate", true), w.plate.ddl("stage", true)...)...); err != nil {
		return err
	}
	var err error
	w.conn, err = w.d.Conn(ctx)
	return err
}

func (w *writeWorkload) db() *sciql.DB { return w.d }
func (w *writeWorkload) cells() int64  { return w.sky.cells() + 2*w.plate.cells() }

func (w *writeWorkload) close() error {
	if w.conn != nil {
		w.conn.Close()
	}
	return w.d.Close()
}

// box renders the dimension predicate of the square [x0, x0+n) x [y0, y0+n).
func box(x0, y0, n int64) string {
	return fmt.Sprintf(`x >= %d AND x < %d AND y >= %d AND y < %d`, x0, x0+n, y0, y0+n)
}

// origin maps the k-th grid position onto array coordinates.
func origin(k, cell int64) (x, y int64) {
	k %= gridSide * gridSide
	return k / gridSide * cell, k % gridSide * cell
}

// prepare runs the shadow model over ops [0, n) and records, per op, the
// generated SQL and what each statement must return.
func (w *writeWorkload) prepare(n int) {
	s := w.sky
	if w.shadow == nil {
		w.shadow = make([][]float64, s.side)
		for x := range w.shadow {
			w.shadow[x] = make([]float64, s.side)
			for y := range w.shadow[x] {
				w.shadow[x][y] = s.a(int64(x), int64(y))
			}
		}
		for x := int64(0); x < w.plate.side; x++ {
			for y := int64(0); y < w.plate.side; y++ {
				w.plateSum += w.plate.a(x, y)
			}
		}
	}
	sumBox := func(x0, y0, side int64) (sum, cnt float64) {
		for x := x0; x < x0+side; x++ {
			for y := y0; y < y0+side; y++ {
				sum += w.shadow[x][y]
				cnt++
			}
		}
		return
	}
	addBox := func(x0, y0, side int64, d float64) {
		for x := x0; x < x0+side; x++ {
			for y := y0; y < y0+side; y++ {
				w.shadow[x][y] += d
			}
		}
	}
	for i := int64(len(w.ops)); i < int64(n); i++ {
		var o writeOp
		// Autocommit update of a rotating slice, with a cursor opened
		// before it that must still see the old values.
		x1, y1 := origin(i*w.s1+w.o1, w.slice)
		d1 := 1 + i%7
		o.snapshot = stmt{class: "snapshot", sql: `SELECT x, y, a FROM sky WHERE ` + box(x1, y1, w.slice)}
		for x := x1; x < x1+w.slice; x++ {
			for y := y1; y < y1+w.slice; y++ {
				o.snapshot.want.add(float64(x), float64(y), w.shadow[x][y])
			}
		}
		o.update = stmt{class: "update", sql: fmt.Sprintf(`UPDATE sky SET a = a + %d WHERE %s`, d1, box(x1, y1, w.slice))}
		addBox(x1, y1, w.slice, float64(d1))
		ex, ey := x1-x1%(2*w.slice), y1-y1%(2*w.slice)
		o.readBack = stmt{class: "read_after_write", sql: `SELECT SUM(a), COUNT(*) FROM sky WHERE ` + box(ex, ey, 2*w.slice)}
		o.readBack.want.add(sumBox(ex, ey, 2*w.slice))

		// Transaction: update another slice and read it back inside.
		x2, y2 := origin(i*w.s2+w.o2, w.slice)
		d2 := 1 + (i+3)%5
		o.txUpdate = stmt{class: "tx_update", sql: fmt.Sprintf(`UPDATE sky SET a = a + %d WHERE %s`, d2, box(x2, y2, w.slice))}
		addBox(x2, y2, w.slice, float64(d2))
		o.txRead = stmt{class: "tx_read", sql: `SELECT SUM(a), COUNT(*) FROM sky WHERE ` + box(x2, y2, w.slice)}
		o.txRead.want.add(sumBox(x2, y2, w.slice))

		// Punch a hole in plate, then refill it from the staging copy.
		x3, y3 := origin(i*w.s3+w.o3, w.region)
		var hole float64
		for x := x3; x < x3+w.region; x++ {
			for y := y3; y < y3+w.region; y++ {
				hole += w.plate.a(x, y)
			}
		}
		o.del = stmt{class: "delete", sql: `DELETE FROM plate WHERE ` + box(x3, y3, w.region)}
		o.afterDel = stmt{class: "plate_check", sql: w.plateSQL}
		o.afterDel.want.add(float64(w.plate.cells()-w.region*w.region), w.plateSum-hole)
		o.ins = stmt{class: "insert", sql: `INSERT INTO plate SELECT [x], [y], a, b, c FROM stage WHERE ` + box(x3, y3, w.region)}
		o.afterIn = stmt{class: "plate_check", sql: w.plateSQL}
		o.afterIn.want.add(float64(w.plate.cells()), w.plateSum)

		// The 1 % query pays the zone-map rebuild the writes caused.
		// a >= x*side always, so only the first rows can qualify.
		o.zone = stmt{class: "zonemap", sql: w.zoneSQL}
		for x := int64(0); x <= min(w.t/s.side, s.side-1); x++ {
			for y := int64(0); y < s.side; y++ {
				if a := w.shadow[x][y]; a < float64(w.t) {
					o.zone.want.add(float64(x), float64(y), a)
				}
			}
		}
		w.ops = append(w.ops, o)
	}
}

func (w *writeWorkload) texts() []string {
	w.prepare(1)
	o := w.ops[0]
	return []string{o.snapshot.sql, o.update.sql, o.readBack.sql, o.txRead.sql, o.del.sql, o.ins.sql, w.plateSQL, w.zoneSQL}
}

func (w *writeWorkload) op(ctx context.Context, _, i int, tr *tracer, parent int) error {
	o := &w.ops[i]
	c := w.conn

	// The cursor runs on its own implicit session, pinned to the
	// catalog snapshot current when it opened.
	cls := tr.begin("update_under_cursor", parent, i)
	sp := tr.begin("send", cls, i)
	rows, err := w.d.QueryContext(ctx, o.snapshot.sql)
	tr.end(sp)
	if err != nil {
		tr.end(cls)
		return fmt.Errorf("snapshot: %w", err)
	}
	err = execStmt(ctx, c, o.update.class, o.update.sql, tr, cls, i)
	got, derr := drain(rows, tr, cls, i)
	tr.end(cls)
	if err != nil {
		return err
	}
	if derr != nil {
		return fmt.Errorf("snapshot: %w", derr)
	}
	if err := verify(o.snapshot, got); err != nil {
		return err
	}
	if err := query(ctx, c, o.readBack, tr, parent, i); err != nil {
		return err
	}

	cls = tr.begin("tx", parent, i)
	err = w.tx(ctx, o, tr, cls, i)
	tr.end(cls)
	if err != nil {
		return err
	}

	cls = tr.begin("delete_insert", parent, i)
	err = w.deleteInsert(ctx, o, tr, cls, i)
	tr.end(cls)
	if err != nil {
		return err
	}
	return query(ctx, c, o.zone, tr, parent, i)
}

func (w *writeWorkload) tx(ctx context.Context, o *writeOp, tr *tracer, parent, i int) error {
	sp := tr.begin("begin", parent, i)
	tx, err := w.conn.Begin()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	if err := execStmt(ctx, tx, o.txUpdate.class, o.txUpdate.sql, tr, parent, i); err != nil {
		tx.Rollback()
		return err
	}
	if err := query(ctx, tx, o.txRead, tr, parent, i); err != nil {
		tx.Rollback()
		return err
	}
	sp = tr.begin("commit", parent, i)
	err = tx.Commit()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

func (w *writeWorkload) deleteInsert(ctx context.Context, o *writeOp, tr *tracer, parent, i int) error {
	c := w.conn
	if err := execStmt(ctx, c, o.del.class, o.del.sql, tr, parent, i); err != nil {
		return err
	}
	if err := query(ctx, c, o.afterDel, tr, parent, i); err != nil {
		return err
	}
	if err := execStmt(ctx, c, o.ins.class, o.ins.sql, tr, parent, i); err != nil {
		return err
	}
	return query(ctx, c, o.afterIn, tr, parent, i)
}
