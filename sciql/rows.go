package sciql

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/value"
)

// Rows is a streaming result cursor, modeled on database/sql.Rows:
//
//	rows, err := db.QueryContext(ctx, `SELECT x, v FROM m WHERE v > ?lo`, sciql.Float("lo", 0.5))
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var x int64
//	    var v float64
//	    if err := rows.Scan(&x, &v); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// For eligible queries (single-array scan/filter/project pipelines)
// rows are pulled incrementally from the executor — the first row is
// available before the scan finishes, and Close stops the scan early.
// Other shapes execute fully and stream from the completed result.
// The cursor reads the catalog snapshot pinned when the query
// started, so DML committed by other connections never changes (or
// tears) the rows an open cursor returns. A Rows cursor does count as
// the in-flight statement of its own connection: run the next
// statement on that connection after Close.
type Rows struct {
	cur *exec.Cursor
	// b is the column batch being served (n rows) and pos the current
	// row in it; b is nil before the first Next and after the last row.
	b      *exec.Batch
	n, pos int
	// row is the buffer Values fills, allocated once.
	row    []Value
	err    error
	closed bool
	// query is the SQL text, attached to contained-panic errors.
	query string
	// tr is the per-cursor trace state when the owning DB has a trace
	// hook or slow-query threshold armed; nil otherwise.
	tr *rowsTrace
}

// Columns returns the result column names in order.
func (r *Rows) Columns() []string {
	cols := r.cur.Cols()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// ColumnTypeNames returns the engine type of each result column as a
// SciQL type name ("INTEGER", "FLOAT", "VARCHAR", "BOOLEAN",
// "TIMESTAMP", "ARRAY"). For streaming cursors the type of a computed
// expression may not be known before rows flow; such columns report
// "" and refine during iteration. The database/sql driver surfaces
// these through sql.ColumnType.
func (r *Rows) ColumnTypeNames() []string {
	cols := r.cur.Cols()
	out := make([]string, len(cols))
	for i, c := range cols {
		if c.Typ == value.Unknown {
			out[i] = ""
			continue
		}
		out[i] = c.Typ.String()
	}
	return out
}

// Next advances to the next row, reporting false at the end of the
// result (or on error — check Err). A row is a position in the column
// batch the executor handed out; the next batch is pulled only when
// the current one is exhausted.
func (r *Rows) Next() bool {
	if r.pos+1 < r.n {
		r.pos++
		return true
	}
	return r.nextBatch()
}

// nextBatch moves to the first row of the next non-empty batch. The
// per-cursor trace state advances here, once per batch.
func (r *Rows) nextBatch() bool {
	if r.closed || r.err != nil {
		return false
	}
	t := r.tr
	for {
		if t != nil {
			t.n += int64(r.n)
		}
		b, err := r.cur.NextBatch()
		r.b, r.n, r.pos = b, 0, 0
		if err != nil {
			r.err = tagQuery(err, r.query)
		}
		if b == nil {
			r.close()
			return false
		}
		if r.n = b.Len(); r.n == 0 {
			continue
		}
		if t != nil && !t.first {
			t.first = true
			t.db.fire(TraceEvent{Phase: TraceFirstRow, Query: t.query, Kind: t.kind, D: time.Since(t.start), When: time.Now()})
		}
		return true
	}
}

// Batch hands an in-tree encoder the column batch holding the current
// row (after a successful Next) and the rows [lo, hi) of it that are
// the encoder's to read: lo is the current row, hi stops at the end of
// the batch or after max rows (max <= 0: no cap). The cursor moves to
// row hi-1, so the following Next continues behind them. The batch is
// valid until that Next.
func (r *Rows) Batch(max int) (b *exec.Batch, lo, hi int) {
	lo, hi = r.pos, r.n
	if max > 0 && hi-lo > max {
		hi = lo + max
	}
	r.pos = hi - 1
	return r.b, lo, hi
}

// Values returns the current row's raw engine values. The slice is a
// buffer the cursor owns, refilled by every call: it is valid until
// the next call to Next or Values — copy what must outlive that.
func (r *Rows) Values() []Value {
	if r.b == nil {
		return nil
	}
	if r.row == nil {
		r.row = make([]Value, len(r.cur.Cols()))
	}
	for i := range r.row {
		r.row[i] = r.b.Value(i, r.pos)
	}
	return r.row
}

// Scan copies the current row into dest: *int64, *int, *float64,
// *string, *bool, *time.Time, *sciql.Value or *any. Typed columns are
// read slot by slot — no Value is built for them.
func (r *Rows) Scan(dest ...any) error {
	if r.b == nil {
		return fmt.Errorf("sciql: Scan called without a successful Next")
	}
	if n := len(r.cur.Cols()); len(dest) != n {
		return fmt.Errorf("sciql: Scan expects %d destinations, got %d", n, len(dest))
	}
	for i, d := range dest {
		if err := scanCell(r.b, i, r.pos, d); err != nil {
			return fmt.Errorf("sciql: Scan column %d: %w", i, err)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor, stopping any in-flight scan. It is safe
// to call multiple times and after full iteration.
func (r *Rows) Close() error {
	r.close()
	return nil
}

func (r *Rows) close() {
	if !r.closed {
		r.closed = true
		r.cur.Close()
		if t := r.tr; t != nil {
			r.tr = nil
			if r.b != nil { // closed mid-batch: the rows read out of it
				t.n += int64(r.pos + 1)
			}
			t.db.noteClose(t.query, t.kind, t.start, t.n, r.err)
		}
		r.b, r.n = nil, 0
	}
}

// materialize drains the cursor into the classic materialized Result —
// the other view of the same execution.
func (r *Rows) materialize() (*Result, error) {
	defer r.close()
	ds, err := r.cur.Materialize()
	err = tagQuery(err, r.query)
	if t := r.tr; t != nil && err == nil && ds != nil {
		// Materialization bypasses Next, so record the row count here
		// for the TraceClose event fired by the deferred close.
		t.n = int64(ds.NumRows())
	}
	return ds, err
}

// scanCell copies cell (col, row) of b into a Go destination.
func scanCell(b *exec.Batch, col, row int, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = b.Value(col, row)
		return nil
	case *any:
		*d = GoValue(b.Value(col, row))
		return nil
	}
	c := b.Cell(col, row)
	if c.Null {
		return fmt.Errorf("cannot scan NULL into %T (use *sciql.Value or *any)", dest)
	}
	i, f, numeric := cellNumber(c)
	switch d := dest.(type) {
	case *int64:
		if !numeric {
			return fmt.Errorf("cannot scan %s into *int64", c.Typ)
		}
		*d = i
	case *int:
		if !numeric {
			return fmt.Errorf("cannot scan %s into *int", c.Typ)
		}
		*d = int(i)
	case *float64:
		if !numeric {
			return fmt.Errorf("cannot scan %s into *float64", c.Typ)
		}
		*d = f
	case *string:
		if c.Typ == value.String {
			*d = c.S
		} else {
			*d = b.Value(col, row).String()
		}
	case *bool:
		if c.Typ != value.Bool {
			return fmt.Errorf("cannot scan %s into *bool", c.Typ)
		}
		*d = c.N != 0
	case *time.Time:
		if c.Typ != value.Timestamp {
			return fmt.Errorf("cannot scan %s into *time.Time", c.Typ)
		}
		*d = time.UnixMicro(c.N).UTC()
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// cellNumber reads a numeric cell (INTEGER, FLOAT, TIMESTAMP, BOOLEAN)
// as an integer and as a float, the way Value.AsInt and AsFloat do.
func cellNumber(c exec.Cell) (i int64, f float64, ok bool) {
	switch c.Typ {
	case value.Int, value.Timestamp, value.Bool:
		return c.N, float64(c.N), true
	case value.Float:
		return int64(c.Float()), c.Float(), true
	}
	return 0, 0, false
}

// GoValue maps an engine value onto its natural Go representation:
// nil for NULL, int64, float64, string, bool, time.Time, or the raw
// array handle.
func GoValue(v Value) any {
	if v.Null {
		return nil
	}
	switch v.Typ {
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.String:
		return v.S
	case value.Bool:
		return v.B
	case value.Timestamp:
		return time.UnixMicro(v.I).UTC()
	default:
		return v.A
	}
}
