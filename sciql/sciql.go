// Package sciql is the public API of the SciQL engine: an embedded,
// in-memory science database where arrays are first-class citizens
// alongside tables, per "SciQL, A Query Language for Science
// Applications" (Kersten, Nes, Zhang, Ivanova — EDBT 2011).
//
// Quick start:
//
//	db := sciql.Open()
//	db.MustExec(`CREATE ARRAY matrix (
//	    x INTEGER DIMENSION[4],
//	    y INTEGER DIMENSION[4],
//	    v FLOAT DEFAULT 0.0)`)
//	db.MustExec(`UPDATE matrix SET v = x + y`)
//	rs, _ := db.Query(`SELECT [x], [y], AVG(v) FROM matrix
//	                   GROUP BY DISTINCT matrix[x:x+2][y:y+2]`)
//	fmt.Print(rs)
package sciql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/exec"
	"repro/internal/sql/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// DB is an embedded SciQL database. DB methods are safe for
// concurrent use: each Exec/Query opens an implicit connection (a
// private session over the shared, versioned catalog), runs its
// statements against one pinned catalog snapshot, and discards the
// session. For session state that must persist across statements —
// transactions, or a prepared workload on one cursor — open an
// explicit connection with Conn; connections execute concurrently
// with each other and with DB-level calls. The configuration knobs
// (Parallelism, Vectorize, SetStorageHint, RegisterExternal,
// SetPlanCacheSize) are setup-time calls: settle them before issuing
// concurrent statements.
type DB struct {
	// engine is the root session: it carries the shared state
	// (catalog, caches, config) every connection derives from, and
	// serves the read-only helpers (Explain, LookupArray).
	engine *exec.Engine
	// mu guards the statement cache; execution never holds it.
	mu    sync.Mutex
	cache *stmtCache
	// tel is the tracing/slow-query-log state (see telemetry.go).
	tel dbTelemetry
}

// Result is a materialized query result.
type Result = exec.Dataset

// Value is the dynamic scalar type of result cells.
type Value = value.Value

// Open creates an empty database.
func Open() *DB {
	db := &DB{engine: exec.New(), cache: newStmtCache(defaultPlanCacheSize)}
	db.initTelemetry()
	return db
}

// Wrap exposes an existing engine through the public API (the
// integration session in internal/core uses it to serve the examples
// and tools without a second catalog).
func Wrap(e *exec.Engine) *DB {
	db := &DB{engine: e, cache: newStmtCache(defaultPlanCacheSize)}
	db.initTelemetry()
	return db
}

// Close releases the database's session-level resources: catalog
// snapshots still pinned by abandoned cursors — of any session,
// including the implicit per-call ones — are freed, so the
// snapshots_pinned gauge returns to zero. The in-memory catalog itself
// needs no teardown; Close exists for resource-hygiene symmetry with
// database/sql and is safe to call more than once. Call it after
// in-flight statements have finished.
func (db *DB) Close() error {
	db.engine.ReleaseAllCursorPins()
	return nil
}

// Exec runs one or more semicolon-separated statements, returning the
// result of the last one (nil for DDL/DML).
func (db *DB) Exec(sql string, args ...Arg) (*Result, error) {
	return db.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec bound to a context: cancellation stops long
// scans — serial loops check periodically, the morsel pool checks in
// its worker loop — and the call returns ctx.Err(). The statements
// run on an implicit connection: a multi-statement script (including
// BEGIN; ...; COMMIT) shares one session, and concurrent ExecContext
// calls do not serialize against each other.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...Arg) (*Result, error) {
	stmts, err := db.compile(sql)
	if err != nil {
		return nil, err
	}
	return db.execTraced(ctx, db.engine.NewSession(), sql, stmts, args)
}

// MustExec is Exec that panics on error; for setup code and examples.
func (db *DB) MustExec(sql string, args ...Arg) *Result {
	rs, err := db.Exec(sql, args...)
	if err != nil {
		panic(fmt.Sprintf("sciql: %v\nSQL: %s", err, sql))
	}
	return rs
}

// Query runs a single SELECT and returns its rows, materialized. It
// is a thin wrapper over the same cursor pipeline QueryContext
// streams from: one implementation, two views.
func (db *DB) Query(sql string, args ...Arg) (*Result, error) {
	rows, err := db.QueryContext(context.Background(), sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.materialize()
}

// QueryContext runs a single SELECT as a streaming cursor: rows are
// pulled incrementally from the executor (for eligible plans the scan
// itself is incremental; other shapes execute fully first), and
// canceling ctx aborts the query. Always Close the returned Rows.
// The cursor runs on an implicit connection against the catalog
// snapshot pinned when the query starts, so concurrent DML commits
// never change (or tear) the rows an open cursor returns.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...Arg) (*Rows, error) {
	sel, err := db.compileSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.queryTraced(ctx, db.engine.NewSession(), sql, sel, args)
}

// compileSelect parses (through the statement cache) and requires a
// single SELECT — or an EXPLAIN [ANALYZE] SELECT, whose rendered plan
// is itself a one-column result.
func (db *DB) compileSelect(sql string) (ast.Statement, error) {
	stmts, err := db.compile(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("Query requires a single SELECT; got %d statements", len(stmts))
	}
	switch stmts[0].(type) {
	case *ast.Select, *ast.Explain:
		return stmts[0], nil
	}
	return nil, fmt.Errorf("Query requires a SELECT; use Exec for %T", stmts[0])
}

// MustQuery is Query that panics on error.
func (db *DB) MustQuery(sql string, args ...Arg) *Result {
	rs, err := db.Query(sql, args...)
	if err != nil {
		panic(fmt.Sprintf("sciql: %v\nSQL: %s", err, sql))
	}
	return rs
}

// QueryArray runs a SELECT whose target list carries dimension
// qualifiers ([x], [y], v) and coerces the result into an array
// (§3.3): the dimension columns become dimensions with bounds from the
// minimal bounding box of the rows.
func (db *DB) QueryArray(sql string, args ...Arg) (*Array, error) {
	rs, err := db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	arr, err := db.engine.DatasetToArray(rs, "result")
	if err != nil {
		return nil, err
	}
	return &Array{a: arr}, nil
}

// Arg is a named host-parameter binding for ?name placeholders.
type Arg struct {
	Name  string
	Value Value
}

// Int binds an integer parameter.
func Int(name string, v int64) Arg { return Arg{name, value.NewInt(v)} }

// Float binds a float parameter.
func Float(name string, v float64) Arg { return Arg{name, value.NewFloat(v)} }

// String binds a string parameter.
func String(name string, v string) Arg { return Arg{name, value.NewString(v)} }

// Time binds a timestamp parameter.
func Time(name string, t time.Time) Arg { return Arg{name, value.NewTime(t)} }

func collectArgs(args []Arg) map[string]Value {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]Value, len(args))
	for _, a := range args {
		m[a.Name] = a.Value
	}
	return m
}

// RegisterExternal registers a Go function under an EXTERNAL NAME so
// that CREATE FUNCTION ... EXTERNAL NAME 'x' can bind to it (§6.2
// black-box functions). Array arguments arrive as *sciql.Array values
// via AsArray.
func (db *DB) RegisterExternal(externalName string, fn func(args []Value) (Value, error)) {
	db.engine.RegisterExternal(externalName, fn)
}

// SetStorageHint forces or tunes the storage scheme chosen for the
// named array at creation time: one of "virtual", "tabular", "dorder",
// "slab" ("" restores the adaptive policy). SlabSize tunes the slab
// edge length when the slab scheme is used.
func (db *DB) SetStorageHint(arrayName, scheme string, slabSize int64) {
	db.engine.SetStorageHint(arrayName, storage.Hints{ForceScheme: scheme, SlabSize: slabSize})
}

// Parallelism sets the worker count for morsel-driven SELECT
// execution: array scans, filters, value group-bys and structural
// tilings split into fixed-size morsels executed across n workers
// with per-worker partial aggregates merged at the end. n <= 0
// selects GOMAXPROCS; 1 (the default) runs the serial interpreter.
// Queries whose plan shape or expressions don't qualify fall back to
// the serial interpreter transparently, with identical results.
// Parallel results are deterministic (partials merge in morsel
// order); float SUM/AVG may differ from serial execution in last-bit
// summation order on non-integer data, as in any parallel database.
func (db *DB) Parallelism(n int) {
	db.engine.SetParallelism(n)
}

// Vectorize toggles vectorized execution: filters and projections
// whose expressions fit the kernel surface (arithmetic, comparisons,
// three-valued logic, IS NULL, BETWEEN/IN over constants, numeric
// builtins) compile into bulk column-at-a-time kernels over scan
// batches instead of walking the expression tree per cell. On by
// default; unsupported expressions fall back to the interpreter per
// item, and results are byte-identical either way. The knob exists
// for benchmarking and the identity test suite.
func (db *DB) Vectorize(on bool) {
	db.engine.SetVectorized(on)
}

// ChunkSkip toggles zone-map chunk skipping. When on (the default),
// scans consult per-chunk min/max/null statistics and skip chunks no
// row of which can satisfy the pushed-down filter conjuncts; skipped
// chunks surface as chunks_skipped in EXPLAIN ANALYZE. Skipping is
// conservative — predicates are still re-evaluated on surviving
// chunks — so results are byte-identical either way. The knob exists
// for benchmarking and the identity test suite.
func (db *DB) ChunkSkip(on bool) {
	db.engine.SetChunkSkip(on)
}

// Explain compiles sql through the query planner (parse → plan →
// optimize) and returns the rendered operator tree plus an execution-
// mode line, without running anything. sql may be a SELECT or an
// EXPLAIN SELECT; the statement is compiled directly — not glued onto
// an "EXPLAIN " prefix — so leading comments work and multi-statement
// input is rejected instead of silently executed.
func (db *DB) Explain(sql string) (string, error) {
	stmts, err := db.compile(sql)
	if err != nil {
		return "", err
	}
	if len(stmts) != 1 {
		return "", fmt.Errorf("Explain requires a single statement; got %d", len(stmts))
	}
	var sel *ast.Select
	switch s := stmts[0].(type) {
	case *ast.Select:
		sel = s
	case *ast.Explain:
		sel = s.Select
	}
	if sel == nil { // EXPLAIN ANALYZE of DML executes; this renders plans only
		return "", fmt.Errorf("EXPLAIN supports SELECT statements, got %T", stmts[0])
	}
	rs := db.engine.ExplainSelect(sel)
	var sb strings.Builder
	for r := 0; r < rs.NumRows(); r++ {
		sb.WriteString(rs.Get(r, 0).S)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// Array wraps an engine array for Go-side access (workload loaders and
// black-box functions use it to avoid SQL round-trips).
type Array struct{ a *array.Array }

// AsArray extracts an array handle from an Array-typed Value (black-
// box function arguments).
func AsArray(v Value) (*Array, bool) {
	if v.Typ != value.Array || v.Null {
		return nil, false
	}
	a, ok := v.A.(*array.Array)
	if !ok {
		return nil, false
	}
	return &Array{a: a}, true
}

// Wrap boxes the array back into a Value (black-box return values).
func (a *Array) Wrap() Value { return value.NewArray(a.a) }

// LookupArray fetches a catalog array by name for bulk Go-side access.
func (db *DB) LookupArray(name string) (*Array, bool) {
	arr, ok := db.engine.Cat.Array(name)
	if !ok {
		return nil, false
	}
	return &Array{a: arr}, true
}

// NumDims returns the array's dimensionality.
func (a *Array) NumDims() int { return a.a.NumDims() }

// Scheme reports the physical storage scheme currently backing the
// array (Fig. 1: virtual, tabular, dorder, slab).
func (a *Array) Scheme() string { return a.a.Store.Scheme() }

// Len returns the number of materialized (non-hole) cells.
func (a *Array) Len() int { return a.a.Store.Len() }

// Get reads one attribute at the given coordinates; out-of-bounds and
// holes read as NULL.
func (a *Array) Get(coords []int64, attr int) Value { return a.a.Get(coords, attr) }

// Set writes one attribute at the given coordinates.
func (a *Array) Set(coords []int64, attr int, v Value) error { return a.a.Set(coords, attr, v) }

// SetFloat is a convenience bulk setter.
func (a *Array) SetFloat(coords []int64, attr int, f float64) error {
	return a.a.Set(coords, attr, value.NewFloat(f))
}

// SetInt is a convenience bulk setter.
func (a *Array) SetInt(coords []int64, attr int, i int64) error {
	return a.a.Set(coords, attr, value.NewInt(i))
}

// Scan visits every non-hole cell; coords and vals are reused between
// calls. Returning false stops the scan.
func (a *Array) Scan(visit func(coords []int64, vals []Value) bool) {
	a.a.Store.Scan(visit)
}

// Bounds returns the array's current bounding box (inclusive).
func (a *Array) Bounds() (lo, hi []int64, err error) { return a.a.BoundingBox() }

// NewInt builds an integer value (black-box helper).
func NewInt(i int64) Value { return value.NewInt(i) }

// NewFloat builds a float value.
func NewFloat(f float64) Value { return value.NewFloat(f) }

// NewString builds a string value.
func NewString(s string) Value { return value.NewString(s) }

// NewTime builds a timestamp value.
func NewTime(t time.Time) Value { return value.NewTime(t) }

// NewNullFloat builds a NULL float value.
func NewNullFloat() Value { return value.NewNull(value.Float) }
