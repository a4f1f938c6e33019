package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/parallel"
	"repro/internal/sql/ast"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// Shared is the state one database's sessions have in common: the
// versioned catalog, the black-box registry, storage hints, the
// parallelism/vectorization configuration and the memoization caches.
// Catalog access is snapshot-based and the caches are mutex-guarded
// (with entries validated against the catalog version), so any number
// of sessions may execute statements concurrently. The configuration
// knobs (SetParallelism, SetVectorized, hints, externals) are
// setup-time calls: change them before running statements
// concurrently, as with database/sql drivers.
//
// Lock order: the four mutexes below acquire in declaration order —
// planMu → vecMu → pinMu → curMu — and a goroutine holding a later
// one must not take an earlier one. Today no code path nests them at
// all (each guards an independent map and critical sections are a few
// lines), but the order is the contract new code is held to: the
// lockorder analyzer in internal/analyzers flags any acquisition
// against it, plus returns that leak a held mutex.
type Shared struct {
	Cat *catalog.Catalog
	// externals maps EXTERNAL NAME strings to Go implementations
	// (§6.2 black-box functions).
	externals map[string]func(args []value.Value) (value.Value, error)
	// StorageHints overrides the adaptive storage policy per array
	// name (ablation benches force schemes through this). Keys are
	// lowercased; read through StorageHint so lookups stay
	// case-insensitive like the catalog's.
	StorageHints map[string]storage.Hints
	// parallelism is the worker count for morsel-driven SELECT
	// execution; <= 1 runs the serial interpreter.
	parallelism int
	// pool is the shared worker pool, sized to parallelism. It is
	// stateless, so concurrent sessions share it freely.
	pool *parallel.Pool
	// planCache memoizes the parallel-eligibility decision (and the
	// array names to prewarm) per SELECT AST node, so re-executed
	// statements (and per-row correlated subqueries, which reuse one
	// AST) plan once, not once per row. Entries are stamped with the
	// catalog version they were planned under: a DDL committed by any
	// session makes every other session's cached decision stale, and
	// the next execution re-resolves instead of running stale bindings.
	planMu    sync.Mutex
	planCache map[*ast.Select]planDecision
	// vectorized enables compiling filters/projections into bulk BAT
	// kernels; off forces the row-at-a-time interpreter everywhere.
	vectorized bool
	// chunkSkip enables zone-map chunk skipping: scans consult per-chunk
	// min/max statistics to drop chunks that cannot satisfy the residual
	// WHERE conjuncts or the dimension restriction. Results are
	// byte-identical either way; the knob exists for benchmarking and
	// the identity test suite.
	chunkSkip bool
	// vecCache memoizes compiled kernel programs per (expression AST
	// node, binding mode), alongside the plan cache, so prepared
	// statements compile kernels once; entries validate against the
	// column signature they were compiled for, which re-checks after
	// any DDL. fusedSkip memoizes "the fused scan path has nothing to
	// offer" verdicts per SELECT node (stamped with the catalog
	// version) so repeated executions skip the stream analysis.
	vecMu     sync.Mutex
	vecCache  map[vecCacheKey]*vecCacheEntry
	fusedSkip map[*ast.Select]int64
	// gov is the database's resource governor: admission control,
	// statement timeouts and memory budgets. Nil on a Shared
	// constructed without New (governor methods are nil-receiver safe).
	gov *governor.Governor
	// met holds the database's pre-resolved telemetry instruments
	// (engine counters, latency histograms, gauges); nil only when the
	// Shared was constructed without New — metrics() falls back to a
	// no-op sink then.
	met *engineMetrics
	// pins ledgers outstanding catalog-snapshot pins (statements and
	// open cursors) behind the snapshots_pinned gauge; see pinSnap.
	pinMu  sync.Mutex
	pins   map[int64]time.Time
	pinSeq int64
	// curRel holds the release hooks of every session's open streaming
	// cursors (the per-session view lives in Engine.curPins), so
	// DB.Close can free pins abandoned on implicit sessions; ledger
	// membership doubles as the hooks' idempotency token.
	curMu  sync.Mutex
	curRel map[int64]func()
	// curSeq mints tokens for non-pin cursor releases (governance
	// cleanups entered in the same ledgers under negative keys, so they
	// never collide with pinSeq's positive pin tokens).
	curSeq atomic.Int64
}

// Engine is one session executing SciQL statements against the shared
// catalog. It owns the expression evaluator (wired with hooks for
// subqueries, array references and UDF calls) and the session's
// snapshot/transaction state. A session executes one statement at a
// time — it is not safe for concurrent use — but any number of
// sessions of one Shared run concurrently: reads pin an immutable
// catalog snapshot, writers build new versions copy-on-write.
type Engine struct {
	*Shared
	Ev *expr.Evaluator
	// qctx is the context of the statement currently executing through
	// ExecContext; helpers consult it (via canceled and the worker
	// pool) so cancellation stops long scans. The session executes one
	// statement at a time, so a single field suffices.
	qctx context.Context
	// snap is the catalog snapshot pinned for the in-flight statement
	// (or open cursor); nil between statements. Inside a transaction
	// the mutation's working view takes precedence.
	snap *catalog.Snapshot
	// mut is the active catalog mutation: the transaction's private
	// version between BEGIN and COMMIT/ROLLBACK, or the autocommit
	// mutation wrapping a single write statement.
	mut *catalog.Mutation
	// inTx marks an explicit BEGIN..COMMIT transaction (mut outlives
	// the statement).
	inTx bool
	// prof is the per-query profile collector EXPLAIN ANALYZE arms for
	// exactly one statement; nil (the overwhelmingly common case) skips
	// every collection site on a single pointer test.
	prof *telemetry.Profile
	// budget is the memory account of the in-flight governed statement;
	// nil when no memory limit is configured (charge sites pay one nil
	// check). Streaming plans copy it at compile time (streamPlan.budget)
	// so cursor workers never read session state.
	budget *governor.Budget
	// stmtDepth counts nested ExecContext frames: governance (admission,
	// timeout, budget, panic containment) applies only at depth zero, so
	// a streaming cursor's materializing fallback is not admitted or
	// budgeted twice.
	stmtDepth int
	// curPins holds the release hooks of this session's open streaming
	// cursors, keyed by pin token; the connection layer drains it on
	// teardown (ReleaseCursorPins) so a Rows abandoned without Close
	// cannot retain superseded catalog versions past its connection's
	// lifetime.
	curPins map[int64]func()
}

// planDecision is one memoized routing decision: the worker count,
// the catalog arrays whose lazy indexes need prewarming before each
// parallel execution, and the optimizer's pruned scan projections.
type planDecision struct {
	par  int
	warm []string
	// catVer is the catalog schema version the decision was planned
	// under; a lookup at any other schema version re-plans (prepared
	// statements re-resolve after DDL from any session instead of
	// executing stale bindings), while DML commits — which change data
	// versions only — leave memoized plans intact.
	catVer int64
	// scans maps lowercased array names to the pruned attribute-name
	// projection of their Scan nodes; an absent entry keeps every
	// attribute. Name-based pruning is safe for any array bound to the
	// name at runtime: an attribute whose name the statement never
	// mentions cannot be referenced.
	scans map[string][]string
}

// scanAttrs resolves the pruned projection for one scanned array into
// schema attribute positions (nil = keep all; empty = dimensions-only
// scan). Names that don't resolve against the runtime schema are
// dropped rather than guessed.
func (d planDecision) scanAttrs(a *array.Array, name string) []int {
	names, ok := d.scans[strings.ToLower(name)]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(names))
	for _, n := range names {
		if ai := a.Schema.AttrIndex(n); ai >= 0 {
			out = append(out, ai)
		}
	}
	return out
}

// New creates an engine session with an empty catalog.
func New() *Engine {
	reg := telemetry.NewRegistry()
	sh := &Shared{
		Cat:          catalog.New(),
		externals:    make(map[string]func([]value.Value) (value.Value, error)),
		StorageHints: make(map[string]storage.Hints),
		vectorized:   true,
		chunkSkip:    true,
		met:          newEngineMetrics(reg),
		pins:         make(map[int64]time.Time),
		gov:          &governor.Governor{},
	}
	sh.gov.SetMetrics(governor.Metrics{
		Admitted:     reg.Counter("queries_admitted_total"),
		Rejected:     reg.Counter("queries_rejected_total"),
		TimedOut:     reg.Counter("queries_timed_out_total"),
		Panicked:     reg.Counter("queries_panicked_total"),
		BudgetAborts: reg.Counter("mem_budget_aborts_total"),
		MemInUse:     reg.Gauge("mem_in_use_bytes"),
	})
	sh.Cat.SetMetrics(reg.Counter("catalog_cow_clone_total"), reg.Counter("catalog_cow_clone_bytes_total"))
	reg.RegisterFunc("snapshot_pin_age_seconds", sh.oldestPinAgeSeconds)
	reg.RegisterFunc("catalog_version", sh.Cat.Version)
	reg.RegisterFunc("catalog_schema_version", func() int64 { return sh.Cat.Snapshot().SchemaVersion() })
	reg.Gauge("pool_workers").Set(1)
	return sh.newSession()
}

// NewSession opens another session over the same shared database:
// same catalog, externals, hints, pool and caches, but private
// evaluator and snapshot/transaction state. Sessions run statements
// concurrently with each other.
func (e *Engine) NewSession() *Engine { return e.Shared.newSession() }

func (sh *Shared) newSession() *Engine {
	e := &Engine{Shared: sh, Ev: expr.New()}
	e.Ev.Hooks = expr.Hooks{
		Subquery: e.scalarSubquery,
		ArrayRef: e.evalArrayRef,
		Call:     e.callUDF,
	}
	return e
}

// cat returns the catalog view of the in-flight statement: the
// transaction's (or autocommit write's) working view when a mutation
// is active, else the snapshot pinned at statement start, else the
// current catalog root.
func (e *Engine) cat() *catalog.Snapshot {
	if e.mut != nil {
		return e.mut.View()
	}
	if e.snap != nil {
		return e.snap
	}
	return e.Cat.Snapshot()
}

// runWrite executes a writing statement. Inside an explicit
// transaction the active mutation accumulates the writes (published
// only at COMMIT). Otherwise the statement runs as its own exclusive
// mutation: the writer lock is held for the statement — writers are
// serialized only against other writers; readers stream on unaffected
// — and the new catalog version is swapped in atomically at the end,
// or discarded entirely on error.
func (e *Engine) runWrite(fn func() error) error {
	if e.mut != nil {
		// Explicit transaction: the statement runs against the open
		// mutation under a savepoint, so a statement that fails
		// mid-execution leaves no partial effects in the transaction
		// (statement atomicity — a later COMMIT publishes only the
		// statements that succeeded). A panicking statement, contained
		// at the governance boundary, rolls back the same way.
		m, sp := e.mut, e.mut.Savepoint()
		done := false
		defer func() {
			if !done {
				m.RollbackTo(sp)
			}
		}()
		err := fn()
		done = err == nil
		return err
	}
	m := e.Cat.BeginExclusive()
	e.mut = m
	committed := false
	defer func() {
		// Abort on error — and on panic, so the writer lock is never
		// left held by a failed statement.
		e.mut = nil
		if !committed {
			m.Abort()
		}
	}()
	if err := fn(); err != nil {
		return err
	}
	// Commit only marks the statement committed when it succeeds: a
	// failing (or panicking) commit falls through to the deferred Abort,
	// which releases the writer lock instead of leaving it held.
	err := m.Commit()
	committed = err == nil
	return err
}

// Begin starts an explicit transaction: reads pin the current catalog
// snapshot, writes accumulate in a private version until Commit.
func (e *Engine) Begin() error {
	if e.inTx {
		return fmt.Errorf("already in a transaction")
	}
	e.mut = e.Cat.BeginTx()
	e.inTx = true
	e.metrics().txBegin.Inc()
	return nil
}

// Commit publishes the transaction. Returns catalog.ErrConflict when
// another transaction committed a conflicting object version first
// (first committer wins); the transaction is over either way.
func (e *Engine) Commit() error {
	if !e.inTx {
		return fmt.Errorf("COMMIT outside a transaction")
	}
	m := e.mut
	e.mut, e.inTx = nil, false
	err := m.Commit()
	if errors.Is(err, catalog.ErrConflict) {
		e.metrics().txConflict.Inc()
	} else if err == nil {
		e.metrics().txCommit.Inc()
	}
	return err
}

// Rollback discards the transaction.
func (e *Engine) Rollback() error {
	if !e.inTx {
		return fmt.Errorf("ROLLBACK outside a transaction")
	}
	e.mut.Abort()
	e.mut, e.inTx = nil, false
	e.metrics().txRollback.Inc()
	return nil
}

// InTx reports whether an explicit transaction is open.
func (e *Engine) InTx() bool { return e.inTx }

// RegisterExternal binds an EXTERNAL NAME to a Go implementation.
func (e *Engine) RegisterExternal(name string, fn func(args []value.Value) (value.Value, error)) {
	e.externals[strings.ToLower(name)] = fn
}

// SetStorageHint records a storage-scheme hint for an array created
// later under the given name.
func (e *Engine) SetStorageHint(arrayName string, h storage.Hints) {
	e.StorageHints[strings.ToLower(arrayName)] = h
}

// StorageHint returns the hint recorded for arrayName, matching the
// catalog's case-insensitive name resolution.
func (e *Engine) StorageHint(arrayName string) storage.Hints {
	return e.StorageHints[strings.ToLower(arrayName)]
}

// SetParallelism sets the worker count for morsel-driven SELECT
// execution. n <= 0 selects GOMAXPROCS; 1 forces the serial
// interpreter.
func (e *Engine) SetParallelism(n int) {
	p := parallel.NewPool(n)
	e.parallelism = p.Workers()
	if m := e.metrics(); m.reg != nil {
		m.reg.Gauge("pool_workers").Set(int64(e.parallelism))
		p.SetMetrics(parallel.Metrics{
			Queue:    m.reg.Gauge("pool_queue_depth"),
			InFlight: m.reg.Gauge("pool_inflight"),
			Morsels:  m.reg.Counter("pool_morsels_total"),
		})
	}
	if e.parallelism > 1 {
		e.pool = p
	} else {
		e.pool = nil
	}
	// Cached eligibility decisions embed the old worker count.
	e.planMu.Lock()
	e.planCache = nil
	e.planMu.Unlock()
	e.invalidateVecCache()
}

// SetVectorized toggles vectorized (bulk-kernel) evaluation of
// filters and projections; off forces the row-at-a-time interpreter.
// Results are byte-identical either way — the knob exists for
// benchmarking and the identity test suite.
func (e *Engine) SetVectorized(on bool) {
	e.vectorized = on
	// Fused-path verdicts embed the old setting.
	e.invalidateVecCache()
}

// SetChunkSkip toggles zone-map chunk skipping on scans. Results are
// byte-identical either way — the knob exists for benchmarking and the
// identity test suite.
func (e *Engine) SetChunkSkip(on bool) { e.chunkSkip = on }

// DatasetToArray exposes the dataset→array coercion (§3.3) to the
// public API.
func (e *Engine) DatasetToArray(ds *Dataset, name string) (*array.Array, error) {
	return e.datasetToArray(ds, nil, name)
}

// baseEnv wraps host parameters as the root environment.
type baseEnv struct{ params map[string]value.Value }

// newBaseEnv binds a statement's host parameters, names lower-cased.
func newBaseEnv(params map[string]value.Value) *baseEnv {
	norm := make(map[string]value.Value, len(params))
	for k, v := range params {
		norm[strings.ToLower(k)] = v
	}
	return &baseEnv{params: norm}
}

func (b *baseEnv) Lookup(string, string) (value.Value, bool) { return value.Value{}, false }
func (b *baseEnv) Param(name string) (value.Value, bool) {
	v, ok := b.params[strings.ToLower(name)]
	return v, ok
}

// Exec runs one statement. Params bind ?name host parameters. SELECT
// returns a dataset; DDL/DML return nil (or a small info dataset).
func (e *Engine) Exec(stmt ast.Statement, params map[string]value.Value) (*Dataset, error) {
	return e.ExecContext(context.Background(), stmt, params)
}

// ExecContext is Exec bound to a context: cancellation stops long
// scans (serial loops check periodically; the morsel pool checks in
// its worker loop) and the statement returns ctx.Err(). It is also the
// governance boundary: the statement acquires an admission slot and a
// memory budget, runs under the statement timeout, and any panic it
// raises is contained here — converted into a *governor.PanicError
// while the session's snapshot/transaction state unwinds through the
// inner defers, leaving the session usable.
func (e *Engine) ExecContext(ctx context.Context, stmt ast.Statement, params map[string]value.Value) (ds *Dataset, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.stmtDepth > 0 {
		// Nested frame (a streaming cursor's materializing fallback): the
		// outer boundary already admitted, budgeted and armed the timer.
		return e.execPinned(ctx, stmt, params)
	}
	gov := e.gov
	release, err := gov.Admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	sctx, cancel := gov.WithStatementTimeout(ctx)
	defer cancel()
	bud := gov.NewBudget()
	e.budget = bud
	e.stmtDepth++
	defer func() {
		e.stmtDepth--
		e.budget = nil
		bud.Release()
		// The inner defers (snapshot unpin, qctx restore, mutation abort)
		// have already run during the unwind by the time this recover
		// fires, so the session is consistent when the panic surfaces as
		// an error.
		if r := recover(); r != nil {
			ds, err = nil, governor.NewPanicError(r, debug.Stack())
		}
		err = govFinish(gov, sctx, err)
	}()
	return e.execPinned(sctx, stmt, params)
}

// execPinned runs one statement inside the governance boundary:
// snapshot pinning, per-statement context bookkeeping and statement
// metrics — ExecContext's historical body.
func (e *Engine) execPinned(ctx context.Context, stmt ast.Statement, params map[string]value.Value) (*Dataset, error) {
	prev := e.qctx
	prevSnap := e.snap
	e.qctx = ctx
	if e.mut == nil {
		// Pin one catalog snapshot for the whole statement; inside a
		// transaction the mutation view is already pinned.
		e.snap = e.Cat.Snapshot()
		pin := e.pinSnap()
		defer e.unpinSnap(pin)
	}
	start := time.Now()
	defer func() {
		e.qctx = prev
		e.snap = prevSnap
		e.metrics().statement(stmtKind(stmt), time.Since(start))
	}()
	return e.execStmt(stmt, params)
}

// ctx returns the context of the in-flight statement.
func (e *Engine) ctx() context.Context {
	if e.qctx == nil {
		return context.Background()
	}
	return e.qctx
}

// canceled reports the in-flight statement's context error; serial
// row loops call it periodically so cancellation is honored even off
// the parallel path.
func (e *Engine) canceled() error {
	if e.qctx == nil {
		return nil
	}
	return e.qctx.Err()
}

// pinCursorSnapshot pins one catalog snapshot for the life of a
// cursor: it stays the session's view until the cursor closes, so
// expression hooks that resolve arrays mid-iteration (m[x-1].v) read
// the same version the scan does, no matter what concurrent sessions
// commit. The returned release func drops the pin so an idle session
// doesn't retain superseded object versions; it is entered in the
// snapshots_pinned ledger and in the session's release map, so
// connection teardown can free cursors abandoned without Close
// (ReleaseCursorPins). Inside a transaction the mutation view is
// already the pin and release is nil.
func (e *Engine) pinCursorSnapshot() (release func()) {
	if e.mut != nil {
		return nil
	}
	pinned := e.Cat.Snapshot()
	e.snap = pinned
	pin := e.pinSnap()
	sh := e.Shared
	release = func() {
		// Membership in the shared ledger is the idempotency token:
		// the first caller (cursor Close, connection teardown, or
		// DB.Close) removes it; later callers find nothing to do.
		sh.curMu.Lock()
		if _, ok := sh.curRel[pin]; !ok {
			sh.curMu.Unlock()
			return
		}
		delete(sh.curRel, pin)
		sh.curMu.Unlock()
		e.unpinSnap(pin)
		delete(e.curPins, pin)
		if e.snap == pinned {
			e.snap = nil
		}
	}
	if e.curPins == nil {
		e.curPins = make(map[int64]func())
	}
	e.curPins[pin] = release
	sh.curMu.Lock()
	if sh.curRel == nil {
		sh.curRel = make(map[int64]func())
	}
	sh.curRel[pin] = release
	sh.curMu.Unlock()
	return release
}

func (e *Engine) execStmt(stmt ast.Statement, params map[string]value.Value) (*Dataset, error) {
	env := newBaseEnv(params)
	// Writing statements run under a catalog mutation (the open
	// transaction's, or an autocommit one wrapping this statement):
	// every touched object is cloned before its first write, and the
	// new versions publish atomically at commit. Plan-cache entries
	// are stamped with the catalog version (selectDecision), so no
	// explicit invalidation is needed here — a committed DDL bumps the
	// version and every session re-plans on next use.
	switch s := stmt.(type) {
	case *ast.Select:
		return e.execSelect(s, env)
	case *ast.Explain:
		return e.execExplain(s, env)
	case *ast.TxStmt:
		switch s.Kind {
		case ast.TxBegin:
			return nil, e.Begin()
		case ast.TxCommit:
			return nil, e.Commit()
		case ast.TxRollback:
			return nil, e.Rollback()
		}
		return nil, fmt.Errorf("unknown transaction statement %q", s.Kind)
	case *ast.CreateTable:
		return nil, e.runWrite(func() error { return e.execCreateTable(s) })
	case *ast.CreateArray:
		return nil, e.runWrite(func() error { return e.execCreateArray(s, env) })
	case *ast.CreateSequence:
		return nil, e.runWrite(func() error { return e.execCreateSequence(s, env) })
	case *ast.CreateFunction:
		return nil, e.runWrite(func() error { return e.execCreateFunction(s) })
	case *ast.AlterArray:
		return nil, e.runWrite(func() error { return e.execAlterArray(s, env) })
	case *ast.Drop:
		return nil, e.runWrite(func() error { return e.mut.Drop(s.Kind, s.Name) })
	case *ast.Insert:
		return nil, e.runWrite(func() error { return e.execInsert(s, env) })
	case *ast.Update:
		return nil, e.runWrite(func() error { return e.execUpdate(s, env) })
	case *ast.SetStmt:
		return nil, e.runWrite(func() error { return e.execSetStmt(s, env) })
	case *ast.Delete:
		return nil, e.runWrite(func() error { return e.execDelete(s, env) })
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// constEval evaluates an expression that must be constant under env.
func (e *Engine) constEval(x ast.Expr, env expr.Env) (value.Value, error) {
	if x == nil {
		return value.NewNull(value.Unknown), nil
	}
	return e.Ev.Eval(x, env)
}

// --- CREATE TABLE ----------------------------------------------------------

func (e *Engine) execCreateTable(s *ast.CreateTable) error {
	cols := make([]catalog.TableColumn, 0, len(s.Cols))
	for _, c := range s.Cols {
		tc := catalog.TableColumn{Name: c.Name, Typ: c.Type, PrimaryKey: c.PrimaryKey}
		if c.Type == value.Array {
			sch, err := e.compileSchema(c.NestedArray, &baseEnv{})
			if err != nil {
				return fmt.Errorf("column %s: %w", c.Name, err)
			}
			tc.Nested = sch
		}
		cols = append(cols, tc)
	}
	return e.mut.PutTable(catalog.NewTable(s.Name, cols))
}

// --- CREATE ARRAY ----------------------------------------------------------

// compileSchema turns parsed column definitions into an array schema,
// resolving dimension ranges, CHECK predicates and defaults.
func (e *Engine) compileSchema(cols []ast.ColDef, env expr.Env) (*array.Schema, error) {
	sch := &array.Schema{}
	var dimNames []string
	for _, c := range cols {
		if c.IsDim {
			dimNames = append(dimNames, c.Name)
		}
	}
	for _, c := range cols {
		if c.IsDim {
			d, err := e.compileDimension(c, env)
			if err != nil {
				return nil, err
			}
			if c.Check != nil {
				d.Check = e.compileCoordPredicate(c.Check, dimNames)
				d.CheckSQL = "CHECK(...)"
			}
			sch.Dims = append(sch.Dims, *d)
			continue
		}
		at := array.Attr{Name: c.Name, Typ: c.Type}
		if c.Type == value.Array {
			nestedCols := c.NestedArray
			if len(c.FixedArrayDims) > 0 {
				// FLOAT ARRAY[4][4] shorthand: synthesize integer
				// dimensions x0..xn with the declared sizes.
				dims := make([]ast.ColDef, len(c.FixedArrayDims))
				for i, sz := range c.FixedArrayDims {
					dims[i] = ast.ColDef{
						Name:  fmt.Sprintf("x%d", i),
						Type:  value.Int,
						IsDim: true,
						Dim:   &ast.DimSpec{Size: sz},
					}
				}
				nestedCols = append(dims, nestedCols...)
			}
			nested, err := e.compileSchema(nestedCols, env)
			if err != nil {
				return nil, fmt.Errorf("attribute %s: %w", c.Name, err)
			}
			// A scalar DEFAULT on an ARRAY[n][m] column initializes the
			// nested cells (payload FLOAT ARRAY[4][4] DEFAULT 0.0).
			if c.Default != nil && constExpr(c.Default) && len(nested.Attrs) == 1 {
				dv, err := e.constEval(c.Default, env)
				if err != nil {
					return nil, fmt.Errorf("attribute %s DEFAULT: %w", c.Name, err)
				}
				if cv, err := value.Coerce(dv, nested.Attrs[0].Typ); err == nil {
					nested.Attrs[0].Default = cv
				}
				c.Default = nil
			}
			at.Nested = nested
			at.Default = value.NewNull(value.Array)
			sch.Attrs = append(sch.Attrs, at)
			continue
		}
		if c.Default != nil {
			if constExpr(c.Default) {
				dv, err := e.constEval(c.Default, env)
				if err != nil {
					return nil, fmt.Errorf("attribute %s DEFAULT: %w", c.Name, err)
				}
				cv, err := value.Coerce(dv, effectiveType(at))
				if err != nil {
					return nil, fmt.Errorf("attribute %s DEFAULT: %w", c.Name, err)
				}
				at.Default = cv
			} else {
				at.DefaultFn = e.compileCoordDefault(c.Default, dimNames, at.Typ, env)
			}
		} else if c.Type != value.Array {
			at.Default = value.NewNull(c.Type)
		}
		if c.Check != nil {
			at.Check = e.compileValuePredicate(c.Check, c.Name)
			at.CheckSQL = "CHECK(...)"
		}
		sch.Attrs = append(sch.Attrs, at)
	}
	return sch, nil
}

func effectiveType(at array.Attr) value.Type {
	if at.Typ == value.Array {
		return value.Array
	}
	return at.Typ
}

// constExpr reports whether an expression contains no identifiers
// (so it can be folded at DDL time).
func constExpr(x ast.Expr) bool {
	ok := true
	ast.Walk(x, func(n ast.Expr) bool {
		switch n.(type) {
		case *ast.Ident, *ast.Subquery, *ast.ArrayRef, *ast.Param:
			ok = false
			return false
		case *ast.FuncCall:
			if strings.EqualFold(n.(*ast.FuncCall).Name, "RAND") {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

func (e *Engine) compileDimension(c ast.ColDef, env expr.Env) (*array.Dimension, error) {
	d := &array.Dimension{Name: c.Name, Typ: c.Type, Step: 1}
	if c.Type != value.Int && c.Type != value.Timestamp {
		return nil, fmt.Errorf("dimension %s: index type must be INTEGER or TIMESTAMP, got %s", c.Name, c.Type)
	}
	if c.Type == value.Timestamp {
		// Temporal dims default to order-only (no grid step).
		d.Step = 0
	}
	spec := c.Dim
	if spec == nil || spec.Bare {
		// Bare DIMENSION: unbounded both ways; the instance bounds are
		// the minimal bounding rectangle of its cells (§3.1).
		d.Start, d.End = array.UnboundedLow, array.UnboundedHigh
		return d, nil
	}
	if spec.SeqName != "" {
		seq, ok := e.cat().Sequence(spec.SeqName)
		if !ok {
			return nil, fmt.Errorf("dimension %s: no such sequence %s", c.Name, spec.SeqName)
		}
		sd := seq.Dimension(c.Name)
		sd.Typ = c.Type
		return &sd, nil
	}
	if spec.Size != nil {
		n, err := e.constEval(spec.Size, env)
		if err != nil {
			return nil, err
		}
		d.Start, d.End, d.Step = 0, n.AsInt(), 1
		return d, nil
	}
	// Colon form.
	d.Start, d.End = array.UnboundedLow, array.UnboundedHigh
	if !spec.StarStart && spec.Start != nil {
		v, err := e.constEval(spec.Start, env)
		if err != nil {
			return nil, err
		}
		d.Start = v.AsInt()
	} else if !spec.StarStart && spec.Start == nil {
		d.Start = 0
	}
	if !spec.StarEnd && spec.End != nil {
		v, err := e.constEval(spec.End, env)
		if err != nil {
			return nil, err
		}
		d.End = v.AsInt()
	}
	if !spec.StarStep && spec.Step != nil {
		v, err := e.constEval(spec.Step, env)
		if err != nil {
			return nil, err
		}
		d.Step = v.AsInt()
	} else if c.Type == value.Int {
		d.Step = 1
	}
	return d, nil
}

// compileCoordPredicate builds a coordinate predicate from a CHECK
// expression over dimension names (diagonal: CHECK(x = y)).
func (e *Engine) compileCoordPredicate(check ast.Expr, dimNames []string) func([]int64) bool {
	return func(coords []int64) bool {
		env := &expr.MapEnv{Vars: make(map[string]value.Value, len(dimNames))}
		for i, n := range dimNames {
			if i < len(coords) {
				env.Vars[strings.ToLower(n)] = value.NewInt(coords[i])
			}
		}
		ok, err := e.Ev.EvalBool(check, env)
		return err == nil && ok
	}
}

// compileValuePredicate builds a content predicate from a CHECK over
// the attribute itself (sparse: CHECK(v > 0)).
func (e *Engine) compileValuePredicate(check ast.Expr, attrName string) func(value.Value) bool {
	return func(v value.Value) bool {
		env := &expr.MapEnv{Vars: map[string]value.Value{strings.ToLower(attrName): v}}
		ok, err := e.Ev.EvalBool(check, env)
		return err == nil && ok
	}
}

// compileCoordDefault builds a coordinate-dependent DEFAULT
// (r = SQRT(POWER(x,2)+POWER(y,2)), §5.1).
func (e *Engine) compileCoordDefault(def ast.Expr, dimNames []string, t value.Type, outer expr.Env) func([]int64) value.Value {
	return func(coords []int64) value.Value {
		env := &expr.MapEnv{Vars: make(map[string]value.Value, len(dimNames)), Parent: outer}
		for i, n := range dimNames {
			if i < len(coords) {
				env.Vars[strings.ToLower(n)] = value.NewInt(coords[i])
			}
		}
		v, err := e.Ev.Eval(def, env)
		if err != nil {
			return value.NewNull(t)
		}
		cv, err := value.Coerce(v, t)
		if err != nil {
			return value.NewNull(t)
		}
		return cv
	}
}

func (e *Engine) execCreateArray(s *ast.CreateArray, env expr.Env) error {
	cols := s.Cols
	if s.Like != "" {
		src, ok := e.cat().Array(s.Like)
		if !ok {
			return fmt.Errorf("CREATE ARRAY %s LIKE: no such array %s", s.Name, s.Like)
		}
		a := &array.Array{Name: s.Name, Schema: src.Schema}
		st, err := e.newStore(s.Name, src.Schema)
		if err != nil {
			return err
		}
		a.Store = st
		return e.mut.PutArray(a)
	}
	sch, err := e.compileSchema(cols, env)
	if err != nil {
		return fmt.Errorf("CREATE ARRAY %s: %w", s.Name, err)
	}
	st, err := e.newStore(s.Name, *sch)
	if err != nil {
		return fmt.Errorf("CREATE ARRAY %s: %w", s.Name, err)
	}
	a := &array.Array{Name: s.Name, Schema: *sch, Store: st}
	if err := e.mut.PutArray(a); err != nil {
		return err
	}
	if s.AsSelect != nil {
		ds, err := e.execSelect(s.AsSelect, env)
		if err != nil {
			return err
		}
		return e.fillArrayFromDataset(a, ds)
	}
	return nil
}

// newStore instantiates storage under the adaptive policy, honoring
// per-array hints.
func (e *Engine) newStore(name string, sch array.Schema) (array.Store, error) {
	return storage.New(sch, e.StorageHint(name))
}

func (e *Engine) execCreateSequence(s *ast.CreateSequence, env expr.Env) error {
	seq := &catalog.Sequence{Name: s.Name, Typ: s.Typ, Start: 0, Increment: 1, MaxValue: int64(1) << 40}
	if s.Start != nil {
		v, err := e.constEval(s.Start, env)
		if err != nil {
			return err
		}
		seq.Start = v.AsInt()
	}
	if s.Increment != nil {
		v, err := e.constEval(s.Increment, env)
		if err != nil {
			return err
		}
		seq.Increment = v.AsInt()
	}
	if s.MaxValue != nil {
		v, err := e.constEval(s.MaxValue, env)
		if err != nil {
			return err
		}
		seq.MaxValue = v.AsInt()
	}
	return e.mut.PutSequence(seq)
}

func (e *Engine) execCreateFunction(s *ast.CreateFunction) error {
	f := &catalog.Function{Name: s.Name, Def: s}
	if s.External != "" {
		impl, ok := e.externals[strings.ToLower(s.External)]
		if !ok {
			return fmt.Errorf("CREATE FUNCTION %s: no registered implementation for EXTERNAL NAME '%s'", s.Name, s.External)
		}
		f.External = impl
	}
	e.mut.PutFunction(f)
	return nil
}

// --- ALTER ARRAY -----------------------------------------------------------

func (e *Engine) execAlterArray(s *ast.AlterArray, env expr.Env) error {
	a, ok := e.cat().Array(s.Name)
	if !ok {
		return fmt.Errorf("ALTER ARRAY: no such array %s", s.Name)
	}
	switch {
	case s.AlterDim != nil:
		return e.alterDimension(a, s.AlterDimName, s.AlterDim, env)
	case s.AddCol != nil:
		return e.addAttribute(a, s.AddCol, env)
	}
	return fmt.Errorf("ALTER ARRAY %s: nothing to do", s.Name)
}

// alterDimension re-declares a dimension's range, shifting the index
// labels of existing cells without touching cell contents (§5.1: the
// image shift is a catalog update).
func (e *Engine) alterDimension(a *array.Array, dimName string, spec *ast.DimSpec, env expr.Env) error {
	di := a.Schema.DimIndex(dimName)
	if di < 0 {
		return fmt.Errorf("ALTER ARRAY %s: no dimension %s", a.Name, dimName)
	}
	old := a.Schema.Dims[di]
	nd, err := e.compileDimension(ast.ColDef{Name: dimName, Type: old.Typ, Dim: spec, IsDim: true}, env)
	if err != nil {
		return err
	}
	// Label shift: the cell at old Start now carries new Start.
	delta := int64(0)
	if nd.Start != array.UnboundedLow && old.Start != array.UnboundedLow {
		delta = nd.Start - old.Start
	}
	newSchema := a.Schema
	newSchema.Dims = append([]array.Dimension(nil), a.Schema.Dims...)
	newSchema.Dims[di] = *nd
	nb, err := e.newDMLScan(a, nil, env, false).rebuild(newSchema, func(dim int, c int64) (int64, bool) {
		if dim == di {
			c += delta
		}
		return c, true
	}, nil)
	if err != nil {
		return err
	}
	e.mut.ReplaceArray(nb.a)
	return nil
}

// addAttribute appends an attribute, evaluating its DEFAULT against
// each existing cell (dims and prior attributes are in scope, so
// theta can reference r).
func (e *Engine) addAttribute(a *array.Array, col *ast.ColDef, env expr.Env) error {
	if col.IsDim {
		// Adding a dimension-tagged attribute (wcs_x FLOAT DIMENSION)
		// stores it as a regular attribute; SciQL treats it as a
		// derived coordinate system (§7.2.1).
		col.IsDim = false
	}
	added := array.Attr{Name: col.Name, Typ: col.Type, Default: value.NewNull(col.Type)}
	newSchema := a.Schema
	newSchema.Attrs = append(append([]array.Attr(nil), a.Schema.Attrs...), added)
	nb, err := e.newDMLScan(a, nil, env, false).rebuild(newSchema, nil, func(out *dmlScan, cur *Dataset) error {
		if col.Default == nil {
			return nil
		}
		// Unlike a SET value, a default that does not coerce to the
		// attribute's type fails the statement.
		vals := make([]value.Value, cur.NumRows())
		cell := &rowEnv{d: cur, outer: env}
		for cell.row = range vals {
			v, err := e.Ev.Eval(col.Default, cell)
			if err == nil {
				vals[cell.row], err = value.Coerce(v, col.Type)
			}
			if err != nil {
				return err
			}
		}
		return out.scatter(cur.Vecs[:len(a.Schema.Dims)], len(a.Schema.Attrs), bat.FromValues(col.Type, vals))
	})
	if err != nil {
		return fmt.Errorf("ALTER ARRAY %s ADD %s: %w", a.Name, col.Name, err)
	}
	e.mut.ReplaceArray(nb.a)
	return nil
}
