// Package driver registers the SciQL engine with database/sql, so
// standard Go tooling can talk to arrays through the standard
// relational interface — the same move SciQL itself makes for array
// science workloads (Kersten et al., EDBT 2011):
//
//	import (
//	    "database/sql"
//	    _ "repro/sciql/driver"
//	)
//
//	db, _ := sql.Open("sciql", "memory://demo")
//	db.ExecContext(ctx, `CREATE ARRAY m (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)
//	rows, _ := db.QueryContext(ctx, `SELECT x, v FROM m WHERE v > ?1`, 0.5)
//
// Every connection opened with the same data source name shares one
// in-memory database (the DSN is just a registry key; "" names the
// default instance). Placeholders are SciQL's named host parameters:
// ?name binds sql.Named("name", v), and plain positional arguments
// bind ?1, ?2, ... by ordinal.
//
// Each driver connection is a real sciql.Conn: its own session over
// the shared, versioned catalog. database/sql's pool therefore maps
// onto genuinely concurrent sessions — queries on different
// connections run in parallel with no shared statement mutex — and
// result sets stream row by row straight from the engine cursor
// instead of being buffered. Every query reads one pinned catalog
// snapshot, so an open *sql.Rows is immune to concurrent DML.
// Transactions are supported: db.BeginTx starts a snapshot-isolated
// transaction (reads pinned at BEGIN, writes private until COMMIT,
// first-committer-wins conflicts surface from Commit as
// sciql.ErrTxConflict).
package driver

import (
	"context"
	"database/sql"
	stddriver "database/sql/driver"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/sciql"
)

func init() {
	sql.Register("sciql", &Driver{})
}

// Driver implements database/sql/driver.Driver over shared in-memory
// SciQL databases keyed by data source name.
type Driver struct{}

var (
	registryMu sync.Mutex
	registry   = make(map[string]*sciql.DB)
)

// getDB resolves a DSN to its shared database, creating it on first
// use.
func getDB(dsn string) *sciql.DB {
	registryMu.Lock()
	defer registryMu.Unlock()
	db, ok := registry[dsn]
	if !ok {
		db = sciql.Open()
		registry[dsn] = db
	}
	return db
}

// Open returns a new connection (session) on the database named by
// dsn, creating the database on first use.
func (Driver) Open(dsn string) (stddriver.Conn, error) {
	return openConn(getDB(dsn))
}

// DB returns the sciql.DB behind a data source name (creating it on
// first use), for tests and mixed native/database-sql access.
func DB(dsn string) *sciql.DB {
	return getDB(dsn)
}

// NewConnector wraps an existing sciql.DB as a driver.Connector for
// sql.OpenDB, bypassing the DSN registry.
func NewConnector(db *sciql.DB) stddriver.Connector {
	return &connector{db: db}
}

type connector struct{ db *sciql.DB }

func (c *connector) Connect(context.Context) (stddriver.Conn, error) { return openConn(c.db) }
func (c *connector) Driver() stddriver.Driver                        { return &Driver{} }

func openConn(db *sciql.DB) (stddriver.Conn, error) {
	sc, err := db.Conn(context.Background())
	if err != nil {
		return nil, err
	}
	return &conn{c: sc}, nil
}

// conn is one database/sql connection backed by its own sciql.Conn
// session. database/sql serializes use of a single conn; different
// conns execute concurrently against the shared catalog.
type conn struct{ c *sciql.Conn }

var (
	_ stddriver.Conn              = (*conn)(nil)
	_ stddriver.QueryerContext    = (*conn)(nil)
	_ stddriver.ExecerContext     = (*conn)(nil)
	_ stddriver.ConnBeginTx       = (*conn)(nil)
	_ stddriver.NamedValueChecker = (*conn)(nil)
	_ stddriver.SessionResetter   = (*conn)(nil)
)

func (c *conn) Close() error { return c.c.Close() }

// ResetSession runs when database/sql returns the connection to its
// pool. A transaction opened by a raw `BEGIN` statement (db.Exec
// rather than db.Begin) would otherwise ride along on the pooled
// connection and silently swallow every later write handed to it;
// roll it back instead — SQL-level transaction scripts belong on a
// dedicated sql.Conn (or db.Begin), not the shared pool.
func (c *conn) ResetSession(ctx context.Context) error {
	if c.c.InTx() {
		if _, err := c.c.ExecContext(ctx, `ROLLBACK`); err != nil {
			return stddriver.ErrBadConn
		}
	}
	return nil
}

// Begin starts a snapshot-isolated transaction on this connection.
func (c *conn) Begin() (stddriver.Tx, error) {
	t, err := c.c.Begin()
	if err != nil {
		return nil, err
	}
	return &tx{t: t}, nil
}

// BeginTx validates the options: SciQL transactions are snapshot
// isolated, so any isolation level at or below snapshot is satisfied;
// serializable is refused rather than silently weakened.
func (c *conn) BeginTx(ctx context.Context, opts stddriver.TxOptions) (stddriver.Tx, error) {
	switch sql.IsolationLevel(opts.Isolation) {
	case sql.LevelDefault, sql.LevelReadUncommitted, sql.LevelReadCommitted,
		sql.LevelRepeatableRead, sql.LevelSnapshot:
	default:
		return nil, fmt.Errorf("sciql: isolation level %s not supported (transactions are snapshot isolated)",
			sql.IsolationLevel(opts.Isolation))
	}
	if opts.ReadOnly {
		// Not enforced by the engine; refuse rather than hand back a
		// "read-only" transaction that accepts writes.
		return nil, fmt.Errorf("sciql: read-only transactions are not supported")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Begin()
}

type tx struct{ t *sciql.Tx }

func (t *tx) Commit() error   { return t.t.Commit() }
func (t *tx) Rollback() error { return t.t.Rollback() }

// Prepare parses the statement once; re-executions reuse the cached
// AST, and the engine's version-stamped plan cache re-resolves after
// DDL from any connection.
func (c *conn) Prepare(query string) (stddriver.Stmt, error) {
	ps, err := c.c.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{ps: ps}, nil
}

// CheckNamedValue converts arguments to engine values; named and
// ordinal parameters are both accepted.
func (c *conn) CheckNamedValue(nv *stddriver.NamedValue) error {
	_, err := toArg(nv)
	return err
}

func (c *conn) QueryContext(ctx context.Context, query string, nvs []stddriver.NamedValue) (stddriver.Rows, error) {
	args, err := toArgs(nvs)
	if err != nil {
		return nil, err
	}
	r, err := c.c.QueryContext(ctx, query, args...)
	if err != nil {
		return nil, err
	}
	return newRows(r), nil
}

func (c *conn) ExecContext(ctx context.Context, query string, nvs []stddriver.NamedValue) (stddriver.Result, error) {
	args, err := toArgs(nvs)
	if err != nil {
		return nil, err
	}
	if _, err := c.c.ExecContext(ctx, query, args...); err != nil {
		return nil, err
	}
	return stddriver.ResultNoRows, nil
}

// stmt is a prepared statement handle bound to its connection.
type stmt struct {
	ps *sciql.Stmt
}

var (
	_ stddriver.Stmt              = (*stmt)(nil)
	_ stddriver.StmtQueryContext  = (*stmt)(nil)
	_ stddriver.StmtExecContext   = (*stmt)(nil)
	_ stddriver.NamedValueChecker = (*stmt)(nil)
)

func (s *stmt) Close() error { return s.ps.Close() }

// NumInput reports -1: the engine binds named parameters at execution
// time, so database/sql skips its placeholder-count check.
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) CheckNamedValue(nv *stddriver.NamedValue) error {
	_, err := toArg(nv)
	return err
}

func (s *stmt) Exec(vals []stddriver.Value) (stddriver.Result, error) {
	return s.ExecContext(context.Background(), ordinalValues(vals))
}

func (s *stmt) Query(vals []stddriver.Value) (stddriver.Rows, error) {
	return s.QueryContext(context.Background(), ordinalValues(vals))
}

func (s *stmt) ExecContext(ctx context.Context, nvs []stddriver.NamedValue) (stddriver.Result, error) {
	args, err := toArgs(nvs)
	if err != nil {
		return nil, err
	}
	if _, err := s.ps.ExecContext(ctx, args...); err != nil {
		return nil, err
	}
	return stddriver.ResultNoRows, nil
}

func (s *stmt) QueryContext(ctx context.Context, nvs []stddriver.NamedValue) (stddriver.Rows, error) {
	args, err := toArgs(nvs)
	if err != nil {
		return nil, err
	}
	r, err := s.ps.QueryContext(ctx, args...)
	if err != nil {
		return nil, err
	}
	return newRows(r), nil
}

func ordinalValues(vals []stddriver.Value) []stddriver.NamedValue {
	nvs := make([]stddriver.NamedValue, len(vals))
	for i, v := range vals {
		nvs[i] = stddriver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return nvs
}

// rows streams straight from the engine cursor: each driver Next call
// reads one row out of the sciql.Rows' current column batch, against
// the catalog snapshot pinned at query start — no pre-buffering, no
// lock held while the caller iterates, and the first row is available
// before a long scan finishes.
type rows struct {
	r     *sciql.Rows
	cols  []string
	types []string
}

var (
	_ stddriver.Rows                           = (*rows)(nil)
	_ stddriver.RowsColumnTypeScanType         = (*rows)(nil)
	_ stddriver.RowsColumnTypeDatabaseTypeName = (*rows)(nil)
)

func newRows(r *sciql.Rows) *rows {
	return &rows{r: r, cols: r.Columns(), types: r.ColumnTypeNames()}
}

func (r *rows) Columns() []string { return r.cols }
func (r *rows) Close() error      { return r.r.Close() }

func (r *rows) Next(dest []stddriver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	b, row, _ := r.r.Batch(1)
	for i := range dest {
		dest[i] = driverValue(b.Value(i, row))
	}
	return nil
}

// ColumnTypeDatabaseTypeName reports the SciQL type of a column
// ("INTEGER", "FLOAT", "VARCHAR", "BOOLEAN", "TIMESTAMP", "ARRAY");
// empty when a streamed computed expression's type is not yet known.
func (r *rows) ColumnTypeDatabaseTypeName(index int) string { return r.types[index] }

var (
	scanTypeInt64  = reflect.TypeOf(int64(0))
	scanTypeFloat  = reflect.TypeOf(float64(0))
	scanTypeString = reflect.TypeOf("")
	scanTypeBool   = reflect.TypeOf(false)
	scanTypeTime   = reflect.TypeOf(time.Time{})
	scanTypeAny    = reflect.TypeOf((*any)(nil)).Elem()
)

// ColumnTypeScanType reports the Go type a column scans into.
func (r *rows) ColumnTypeScanType(index int) reflect.Type {
	switch r.types[index] {
	case "INTEGER":
		return scanTypeInt64
	case "FLOAT":
		return scanTypeFloat
	case "VARCHAR":
		return scanTypeString
	case "BOOLEAN":
		return scanTypeBool
	case "TIMESTAMP":
		return scanTypeTime
	default:
		return scanTypeAny
	}
}

// driverValue maps an engine value onto driver.Value's allowed set.
func driverValue(v sciql.Value) stddriver.Value {
	g := sciql.GoValue(v)
	switch g.(type) {
	case nil, int64, float64, bool, []byte, string, time.Time:
		return g
	default:
		return fmt.Sprint(g)
	}
}

// toArgs converts database/sql arguments to engine parameter bindings.
func toArgs(nvs []stddriver.NamedValue) ([]sciql.Arg, error) {
	args := make([]sciql.Arg, 0, len(nvs))
	for i := range nvs {
		a, err := toArg(&nvs[i])
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}

// toArg binds one argument: sql.Named("lo", v) binds ?lo, a bare
// positional argument binds ?N by ordinal.
func toArg(nv *stddriver.NamedValue) (sciql.Arg, error) {
	name := nv.Name
	if name == "" {
		name = strconv.Itoa(nv.Ordinal)
	}
	switch v := nv.Value.(type) {
	case nil:
		return sciql.Arg{Name: name, Value: sciql.NewNullFloat()}, nil
	case int64:
		return sciql.Int(name, v), nil
	case int:
		return sciql.Int(name, int64(v)), nil
	case float64:
		return sciql.Float(name, v), nil
	case bool:
		i := int64(0)
		if v {
			i = 1
		}
		return sciql.Int(name, i), nil
	case string:
		return sciql.String(name, v), nil
	case []byte:
		return sciql.String(name, string(v)), nil
	case time.Time:
		return sciql.Time(name, v), nil
	default:
		return sciql.Arg{}, fmt.Errorf("sciql: unsupported argument type %T", nv.Value)
	}
}
