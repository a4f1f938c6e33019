package sciql

import (
	"container/list"
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// Stmt is a prepared statement: the SQL text is parsed once and the
// engine's per-node plan memoization means the optimized plan is
// computed once too — re-executions bind ?name parameters and run,
// skipping parse and plan entirely. Plan-cache entries are stamped
// with the catalog version: DDL committed by any connection makes the
// statement re-resolve on its next execution instead of running
// against stale bindings.
//
// A Stmt prepared on a Conn executes on that connection (and inside
// its transaction, if one is open). A Stmt prepared on the DB
// executes each call on its own implicit connection, so DB-level
// statements are safe for concurrent use. Close is optional
// (statements hold no external resources) but keeps the API parallel
// to database/sql.
type Stmt struct {
	db    *DB
	conn  *Conn // nil for DB-level statements
	text  string
	stmts []ast.Statement
}

// session returns the engine session one execution runs on.
func (s *Stmt) session() (*exec.Engine, error) {
	if s.conn != nil {
		if err := s.conn.check(); err != nil {
			return nil, err
		}
		return s.conn.eng, nil
	}
	return s.db.engine.NewSession(), nil
}

// Prepare parses sql (one or more semicolon-separated statements)
// once and returns a reusable statement handle.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	stmts, err := db.compile(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: sql, stmts: stmts}, nil
}

// Text returns the statement's SQL.
func (s *Stmt) Text() string { return s.text }

// NumStatements reports how many statements the text holds (0 for an
// empty or comment-only text).
func (s *Stmt) NumStatements() int { return len(s.stmts) }

// Kind classifies the compiled text: "select", "explain", "insert",
// "update", "delete", "set", "tx", "ddl" or "other" for one statement,
// "script" otherwise. A protocol front end routes on it — Query for
// "select" and "explain", Exec for the rest — instead of parsing the
// text a second time.
func (s *Stmt) Kind() string { return scriptKind(s.stmts) }

// TxVerb is "BEGIN", "COMMIT" or "ROLLBACK" when the text is that one
// transaction-control statement, "" otherwise.
func (s *Stmt) TxVerb() string {
	if len(s.stmts) == 1 {
		if tx, ok := s.stmts[0].(*ast.TxStmt); ok {
			return string(tx.Kind)
		}
	}
	return ""
}

// Close releases the statement. It is a no-op today.
func (s *Stmt) Close() error { return nil }

// Exec runs the prepared statement(s), returning the last result.
func (s *Stmt) Exec(args ...Arg) (*Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext is Exec bound to a context; cancellation aborts long
// scans and returns ctx.Err().
func (s *Stmt) ExecContext(ctx context.Context, args ...Arg) (*Result, error) {
	eng, err := s.session()
	if err != nil {
		return nil, err
	}
	return s.db.execTraced(ctx, eng, s.text, s.stmts, args)
}

// Query runs a prepared single-SELECT statement, materializing the
// rows (Result is the materialized view of the same cursor pipeline
// QueryContext streams from).
func (s *Stmt) Query(args ...Arg) (*Result, error) {
	rows, err := s.QueryContext(context.Background(), args...)
	if err != nil {
		return nil, err
	}
	return rows.materialize()
}

// QueryContext runs a prepared single-SELECT statement as a streaming
// cursor against the snapshot pinned when the query starts.
func (s *Stmt) QueryContext(ctx context.Context, args ...Arg) (*Rows, error) {
	sel, err := s.selectStmt()
	if err != nil {
		return nil, err
	}
	eng, err := s.session()
	if err != nil {
		return nil, err
	}
	return s.db.queryTraced(ctx, eng, s.text, sel, args)
}

func (s *Stmt) selectStmt() (ast.Statement, error) {
	if len(s.stmts) != 1 {
		return nil, fmt.Errorf("Query requires a single SELECT; statement has %d statements", len(s.stmts))
	}
	switch s.stmts[0].(type) {
	case *ast.Select, *ast.Explain:
		return s.stmts[0], nil
	}
	return nil, fmt.Errorf("Query requires a SELECT; use Exec for %T", s.stmts[0])
}

// --- statement cache -------------------------------------------------------

// defaultPlanCacheSize bounds the DB's LRU statement cache: ad-hoc
// Query/Exec calls with identical text reuse the parsed AST, and —
// because the engine memoizes its planning decision per AST node —
// skip the optimizer as well.
const defaultPlanCacheSize = 256

// stmtCache is a small LRU keyed by SQL text.
type stmtCache struct {
	cap     int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	text  string
	stmts []ast.Statement
}

func newStmtCache(capacity int) *stmtCache {
	if capacity <= 0 {
		return nil
	}
	return &stmtCache{cap: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *stmtCache) get(text string) ([]ast.Statement, bool) {
	el, ok := c.entries[text]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).stmts, true
}

func (c *stmtCache) put(text string, stmts []ast.Statement) {
	if el, ok := c.entries[text]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).stmts = stmts
		return
	}
	c.entries[text] = c.order.PushFront(&cacheEntry{text: text, stmts: stmts})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).text)
	}
}

// compile parses sql through the DB's statement cache: a hit reuses
// the parsed AST (and thereby the engine's memoized plan); a miss
// parses and caches. Hits and misses count into the
// stmt_cache_hit_total / stmt_cache_miss_total metrics, and an armed
// trace hook observes the parse phase with its duration.
func (db *DB) compile(sql string) ([]ast.Statement, error) {
	start := time.Now()
	db.mu.Lock()
	if db.cache != nil {
		if stmts, ok := db.cache.get(sql); ok {
			db.mu.Unlock()
			db.tel.stmtHit.Inc()
			if db.traceArmed() {
				db.fire(TraceEvent{Phase: TraceParse, Query: sql, Kind: scriptKind(stmts), D: time.Since(start), When: time.Now()})
			}
			return stmts, nil
		}
	}
	db.mu.Unlock()
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil, syntaxError{err}
	}
	db.tel.stmtMiss.Inc() // a text that does not parse is no cache miss
	if db.traceArmed() {
		db.fire(TraceEvent{Phase: TraceParse, Query: sql, Kind: scriptKind(stmts), D: time.Since(start), When: time.Now()})
	}
	db.mu.Lock()
	if db.cache != nil {
		db.cache.put(sql, stmts)
	}
	db.mu.Unlock()
	return stmts, nil
}

// SetPlanCacheSize resizes the DB's statement/plan LRU cache. n <= 0
// disables caching (every call re-parses and re-plans); the default
// is 256 entries.
func (db *DB) SetPlanCacheSize(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cache = newStmtCache(n)
}
