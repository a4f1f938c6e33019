package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/server/pgwire"
	"repro/sciql"
)

// The wire script: one op is this fixed sequence on one connection.
const (
	wireHits   = 16 // point selects drawn from a pool of wirePool texts
	wirePool   = 64 // fits the 256-entry statement cache
	wireMisses = 8  // point selects with never-repeated literals
	wireExts   = 8  // parameterised Parse/Bind/Execute cycles of one text
	tileSide   = 32 // the fetch class returns tileSide^2 = 1024 rows
)

const (
	pointSQL = `SELECT a, b, c FROM sky WHERE x = %d AND y = %d`
	extSQL   = `SELECT a, b, c FROM sky WHERE x = ?1 AND y = ?2`
	fetchSQL = `SELECT x, y, a, c FROM tile`
)

// wireWorkload is wire_mixed: sciqld in this process on loopback pgwire,
// one persistent connection per client.
type wireWorkload struct {
	p         params
	sky, tile sky
	zoneSQL   string
	// pool holds the repeated point selects; hitStride, missStride and
	// extStride are odd, so they walk the pool and the coordinate space
	// without repeating before they wrap.
	pool                             []stmt
	hitStride, missStride, extStride int64
	missOff, extOff                  int64
	fetch                            stmt

	d     *sciql.DB
	srv   *server.Server
	conns []*wireConn
}

func newWire(p params) *wireWorkload {
	r := &rng{s: uint64(p.seed)}
	w := &wireWorkload{p: p, sky: newSky(r, skySide/p.shrink)}
	w.zoneSQL = zoneSQL(w.sky.zoneThreshold(r))
	w.tile = newSky(r, tileSide)
	for len(w.pool) < wirePool {
		x, y := r.in(0, w.sky.side-1), r.in(0, w.sky.side-1)
		w.pool = append(w.pool, w.point("point_hit", x, y))
	}
	w.hitStride, w.missStride, w.extStride = r.odd(3, 61), r.odd(1001, 99999), r.odd(1001, 99999)
	w.missOff, w.extOff = r.in(0, w.sky.cells()-1), r.in(0, w.sky.cells()-1)
	w.fetch = stmt{class: "fetch", sql: fetchSQL}
	for x := int64(0); x < tileSide; x++ {
		for y := int64(0); y < tileSide; y++ {
			w.fetch.want.add(float64(x), float64(y), w.tile.a(x, y), w.tile.c(x, y))
		}
	}
	return w
}

// point builds a literal point select and its expected single row.
func (w *wireWorkload) point(class string, x, y int64) stmt {
	st := stmt{class: class, sql: fmt.Sprintf(pointSQL, x, y)}
	st.want.add(w.sky.a(x, y), w.sky.b(x, y), w.sky.c(x, y))
	return st
}

// coord maps the n-th step of an odd stride onto a sky coordinate.
func (w *wireWorkload) coord(n, stride, off int64) (x, y int64) {
	pos := (n*stride + off) % w.sky.cells()
	return pos / w.sky.side, pos % w.sky.side
}

func (w *wireWorkload) setup(ctx context.Context) error {
	w.d = sciql.Open()
	w.d.Parallelism(w.p.workers)
	if err := loadSky(ctx, w.d, w.sky, w.zoneSQL); err != nil {
		return err
	}
	if err := load(ctx, w.d, w.tile.ddl("tile", false)...); err != nil {
		return err
	}
	w.srv = server.New(w.d, server.Config{PgAddr: "127.0.0.1:0"})
	if err := w.srv.Start(); err != nil {
		return err
	}
	for len(w.conns) < 2 {
		c, err := pgwire.Dial(w.srv.PgAddr(), pgwire.ClientConfig{})
		if err != nil {
			return err
		}
		rd, wr := c.Raw()
		w.conns = append(w.conns, &wireConn{c: c, rd: rd, wr: wr})
	}
	return nil
}

func (w *wireWorkload) db() *sciql.DB { return w.d }
func (w *wireWorkload) cells() int64  { return w.sky.cells() + tileSide*tileSide }
func (w *wireWorkload) prepare(int)   {}

func (w *wireWorkload) close() error {
	var err error
	for _, c := range w.conns {
		err = errors.Join(err, c.c.Close())
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = errors.Join(err, w.srv.Shutdown(ctx))
	}
	return errors.Join(err, w.d.Close())
}

func (w *wireWorkload) texts() []string {
	out := []string{extSQL, fetchSQL}
	for _, st := range w.pool {
		out = append(out, st.sql)
	}
	for j := int64(0); j < wireMisses; j++ {
		x, y := w.coord(j, w.missStride, w.missOff)
		out = append(out, fmt.Sprintf(pointSQL, x, y))
	}
	return out
}

func (w *wireWorkload) op(_ context.Context, client, i int, tr *tracer, parent int) error {
	c := w.conns[client]
	n := int64(i)
	for j := int64(0); j < wireHits; j++ {
		st := w.pool[(n*wireHits+j)*w.hitStride%wirePool]
		if err := c.simple(st, tr, parent, i); err != nil {
			return err
		}
	}
	for j := int64(0); j < wireMisses; j++ {
		x, y := w.coord(n*wireMisses+j, w.missStride, w.missOff)
		if err := c.simple(w.point("point_miss", x, y), tr, parent, i); err != nil {
			return err
		}
	}
	var px, py []byte
	for j := int64(0); j < wireExts; j++ {
		x, y := w.coord(n*wireExts+j, w.extStride, w.extOff)
		st := stmt{class: "point_ext", sql: extSQL}
		st.want.add(w.sky.a(x, y), w.sky.b(x, y), w.sky.c(x, y))
		px, py = strconv.AppendInt(px[:0], x, 10), strconv.AppendInt(py[:0], y, 10)
		if err := c.ext(st, tr, parent, i, px, py); err != nil {
			return err
		}
	}
	return c.simple(w.fetch, tr, parent, i)
}

// wireOverhead is the median latency of a cached point select over the
// wire minus that of the same statement through db.QueryContext.
func (w *wireWorkload) wireOverhead(ctx context.Context) (float64, error) {
	const n = 2000
	st := w.pool[0]
	wire, direct := make([]float64, n), make([]float64, n)
	for i := range wire {
		t0 := time.Now()
		if err := w.conns[0].simple(st, nil, -1, 0); err != nil {
			return 0, err
		}
		wire[i] = micros(time.Since(t0))
		t0 = time.Now()
		if err := query(ctx, w.d, st, nil, -1, 0); err != nil {
			return 0, err
		}
		direct[i] = micros(time.Since(t0))
	}
	return median(wire) - median(direct), nil
}

// wireConn is the harness's pgwire client: it writes frames through the
// repo's codec and reads the reply itself, so it can time the first row
// and checksum rows without keeping them.
type wireConn struct {
	c  *pgwire.Client
	rd *pgwire.Reader
	wr *pgwire.Writer
}

// simple runs st through the simple-query protocol.
func (c *wireConn) simple(st stmt, tr *tracer, parent, op int) error {
	cls := tr.begin(st.class, parent, op)
	defer tr.end(cls)
	sp := tr.begin("send", cls, op)
	err := errors.Join(c.wr.WriteQuery(st.sql), c.wr.Flush())
	tr.end(sp)
	if err != nil {
		return err
	}
	return c.readCycle(st, tr, cls, op)
}

// ext runs st through one unnamed Parse/Bind/Describe/Execute/Sync cycle
// with text-format parameters.
func (c *wireConn) ext(st stmt, tr *tracer, parent, op int, params ...[]byte) error {
	cls := tr.begin(st.class, parent, op)
	defer tr.end(cls)
	sp := tr.begin("send", cls, op)
	err := errors.Join(
		c.wr.WriteParse("", st.sql, nil),
		c.wr.WriteBind("", "", params),
		c.wr.WriteDescribe('P', ""),
		c.wr.WriteExecute("", 0),
		c.wr.WriteSync(),
		c.wr.Flush(),
	)
	tr.end(sp)
	if err != nil {
		return err
	}
	return c.readCycle(st, tr, cls, op)
}

// readCycle consumes the reply up to ReadyForQuery and verifies it.
func (c *wireConn) readCycle(st stmt, tr *tracer, parent, op int) error {
	var got check
	var cols []float64
	var pgErr error
	sp := tr.begin("first_row", parent, op)
	defer func() { tr.end(sp) }()
	for {
		msg, err := c.rd.ReadMessage()
		if err != nil {
			return fmt.Errorf("%s: %w", st.class, err)
		}
		switch msg.Type {
		case pgwire.MsgDataRow:
			if got.rows == 0 {
				tr.end(sp)
				sp = tr.begin("drain", parent, op)
			}
			fields, err := pgwire.ParseDataRow(msg.Data)
			if err != nil {
				return fmt.Errorf("%s: %w", st.class, err)
			}
			cols = cols[:0]
			for _, f := range fields {
				v, err := parseNumber(f)
				if err != nil {
					return fmt.Errorf("%s: %w", st.class, err)
				}
				cols = append(cols, v)
			}
			got.add(cols...)
		case pgwire.MsgErrorResponse:
			f, err := pgwire.ParseErrorResponse(msg.Data)
			if err != nil {
				return fmt.Errorf("%s: %w", st.class, err)
			}
			pgErr = &pgwire.PgError{Severity: f.Severity, Code: f.Code, Message: f.Message}
		case pgwire.MsgReadyForQuery:
			if pgErr != nil {
				return fmt.Errorf("%s: %w\nSQL: %s", st.class, pgErr, st.sql)
			}
			return verify(st, got)
		}
	}
}

// parseNumber reads a text-format field. Every value of this workload is
// an integer, so the digits-only path is the one that runs.
func parseNumber(f []byte) (float64, error) {
	if f == nil {
		return null, nil
	}
	var n int64
	for _, ch := range f {
		if ch < '0' || ch > '9' || n > 1<<52 {
			return strconv.ParseFloat(string(f), 64)
		}
		n = n*10 + int64(ch-'0')
	}
	return float64(n), nil
}
