package main

import (
	"context"
	"fmt"

	"repro/internal/value"
	"repro/sciql"
)

// spec is one row of the workload table. The op counts are committed
// constants, sized at the parent of the PR that added the benchmark, and
// are never calibrated at run time: two commits under comparison do
// identical work.
type spec struct {
	name string
	why  string
	// roundOps is the op count of one measured round at the default
	// --seconds, a little over three seconds of work; other --seconds
	// scale it.
	roundOps int
	// sliceOps is how many ops run between two runs of the reference
	// work, about a quarter of a second's worth.
	sliceOps int
	// tracedOps is the op count of the traced round and of the untraced
	// round it is compared against.
	tracedOps int
	// clients is the number of closed-loop clients; op i runs on client
	// i % clients.
	clients int
	// speedup names the per-layer metric that reports this workload's op
	// at Parallelism(1) against Parallelism(workers); empty for none.
	speedup string
	// scanProbes marks the workload whose cycle the scan-overhead ratio
	// and the governor and trace-hook overheads are measured on.
	scanProbes bool
	new        func(p params) instance
}

// params is what a seed and a scale turn into a workload instance.
type params struct {
	seed int64
	// shrink divides every array side; 1 is the committed size, 8 is the
	// 1/64-scale smoke test.
	shrink int64
	// workers is GOMAXPROCS, the engine's parallelism and the wire
	// workload's connection count.
	workers int
}

// instance is one loaded database plus the op that exercises it.
type instance interface {
	// setup creates the schema, bulk-loads it through SQL DML, starts
	// whatever serves it, and runs one query that forces the lazy zone
	// maps. It is what setup_s times.
	setup(ctx context.Context) error
	db() *sciql.DB
	// cells is the number of array cells setup loaded.
	cells() int64
	// prepare computes the oracle's expectations for ops [0, n) in plain
	// Go from the seed. It runs outside every timed region.
	prepare(n int)
	// op runs op i on the given client and returns an error if any
	// statement fails or disagrees with the oracle.
	op(ctx context.Context, client, i int, tr *tracer, parent int) error
	// texts lists the distinct statement texts of the op mix.
	texts() []string
	close() error
}

var specs = []spec{
	{
		name:     "scan_analytics",
		why:      "read-only scans of a 1M-cell array: storage scan, bat kernels and exec select/aggregate do the work; wire and catalog do none",
		roundOps: 8, sliceOps: 1, tracedOps: 6, clients: 1,
		speedup: "parallel.scan_speedup", scanProbes: true,
		new: func(p params) instance { return newScan(p) },
	},
	{
		name:     "structural_join",
		why:      "sliding and distinct tiling plus an array join on cache-resident arrays: exec tiling/join and per-row expr dominate, raw scan is small",
		roundOps: 18, sliceOps: 2, tracedOps: 14, clients: 1,
		speedup: "parallel.structural_speedup",
		new:     func(p params) instance { return newStructural(p) },
	},
	{
		name:     "wire_mixed",
		why:      "sciqld on loopback pgwire: cached, never-repeated and parameterised point selects plus a 1024-row fetch; server, pgwire, statement cache, parse and plan dominate",
		roundOps: 2800, sliceOps: 200, tracedOps: 600, clients: 2,
		new: func(p params) instance { return newWire(p) },
	},
	{
		name:     "write_mixed",
		why:      "updates, a transaction, delete and re-insert, read-after-write and a snapshot cursor on one connection: catalog copy-on-write, storage Set and zone-map rebuilds dominate",
		roundOps: 9, sliceOps: 1, tracedOps: 7, clients: 1,
		new: func(p params) instance { return newWrite(p) },
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// session is the part of sciql.DB, sciql.Conn and sciql.Tx the in-process
// workloads drive.
type session interface {
	QueryContext(ctx context.Context, sql string, args ...sciql.Arg) (*sciql.Rows, error)
	ExecContext(ctx context.Context, sql string, args ...sciql.Arg) (*sciql.Result, error)
}

// stmt is one statement of an op with what the oracle expects of it.
type stmt struct {
	class string
	sql   string
	want  check
}

// readOnly is the part scan_analytics and structural_join share: an
// in-process database and the same statements every op.
type readOnly struct {
	d     *sciql.DB
	stmts []stmt
}

func (r *readOnly) db() *sciql.DB { return r.d }
func (r *readOnly) prepare(int)   {}
func (r *readOnly) close() error  { return r.d.Close() }

func (r *readOnly) texts() []string {
	out := make([]string, len(r.stmts))
	for i, st := range r.stmts {
		out[i] = st.sql
	}
	return out
}

func (r *readOnly) op(ctx context.Context, _, i int, tr *tracer, parent int) error {
	for _, st := range r.stmts {
		if err := query(ctx, r.d, st, tr, parent, i); err != nil {
			return err
		}
	}
	return nil
}

// query runs one SELECT through a streaming cursor, checksums the rows as
// a client would read them, and compares with the oracle. With a tracer
// it records send (QueryContext returns), first_row, drain and close.
func query(ctx context.Context, s session, st stmt, tr *tracer, parent, op int) error {
	cls := tr.begin(st.class, parent, op)
	defer tr.end(cls)
	sp := tr.begin("send", cls, op)
	rows, err := s.QueryContext(ctx, st.sql)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", st.class, err)
	}
	got, err := drain(rows, tr, cls, op)
	if err != nil {
		return fmt.Errorf("%s: %w", st.class, err)
	}
	return verify(st, got)
}

// drain reads a cursor to its end and closes it.
func drain(rows *sciql.Rows, tr *tracer, parent, op int) (check, error) {
	var got check
	var cols []float64
	sp := tr.begin("first_row", parent, op)
	for rows.Next() {
		if got.rows == 0 {
			tr.end(sp)
			sp = tr.begin("drain", parent, op)
		}
		vals := rows.Values()
		cols = cols[:0]
		for _, v := range vals {
			cols = append(cols, numeric(v))
		}
		got.add(cols...)
	}
	tr.end(sp)
	sp = tr.begin("close", parent, op)
	err := rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	tr.end(sp)
	return got, err
}

func verify(st stmt, got check) error {
	if got != st.want {
		return fmt.Errorf("%s: oracle mismatch: got %d rows sum %#x, want %d rows sum %#x\nSQL: %s",
			st.class, got.rows, got.sum, st.want.rows, st.want.sum, st.sql)
	}
	return nil
}

// numeric maps a result cell onto the float64 the checksum folds.
func numeric(v sciql.Value) float64 {
	if v.Null {
		return null
	}
	switch v.Typ {
	case value.Int:
		return float64(v.I)
	case value.Float:
		return v.F
	}
	panic(fmt.Sprintf("bench: non-numeric result cell %v", v))
}

// execStmt runs one statement that returns no rows.
func execStmt(ctx context.Context, s session, class, sql string, tr *tracer, parent, op int) error {
	sp := tr.begin(class, parent, op)
	_, err := s.ExecContext(ctx, sql)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w\nSQL: %s", class, err, sql)
	}
	return nil
}

// load runs set-up statements on db.
func load(ctx context.Context, db *sciql.DB, stmts ...string) error {
	for _, s := range stmts {
		if _, err := db.ExecContext(ctx, s); err != nil {
			return fmt.Errorf("set-up: %w\nSQL: %s", err, s)
		}
	}
	return nil
}
