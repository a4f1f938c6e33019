// Package catalog holds the schema objects of a SciQL database:
// tables, arrays, sequences and functions. A TABLE denotes a
// (multi-)set of tuples; an ARRAY denotes a (sparsely) indexed
// collection of cells (§3.1) — the catalog keeps both side by side so
// queries can mix them freely.
//
// The catalog is a multi-version store: the root is an immutable
// Snapshot swapped atomically on commit. Readers pin a Snapshot for
// the duration of a statement (or an explicit transaction) and see a
// stable schema and stable array contents no matter what concurrent
// writers do; writers build a new version through a copy-on-write
// Mutation — cloning each object before the first write — and commit
// by swapping the root. Writers are serialized only against other
// writers: autocommit statements hold the writer lock for the whole
// statement, while explicit transactions accumulate privately and
// commit optimistically with first-committer-wins conflict detection
// by object version.
package catalog

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/faultinject"
	"repro/internal/sql/ast"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// ErrConflict is returned by Mutation.Commit when another transaction
// committed a conflicting version of an object this one wrote (first
// committer wins).
var ErrConflict = errors.New("transaction conflict: concurrent update committed first")

// TableColumn describes one column of a relational table.
type TableColumn struct {
	Name       string
	Typ        value.Type
	PrimaryKey bool
	// Nested carries the element schema of ARRAY-typed columns.
	Nested *array.Schema
}

// Table is an in-memory relational table backed by BAT columns.
type Table struct {
	Name string
	Cols []TableColumn
	Vecs []bat.Vector
}

// NewTable allocates an empty table.
func NewTable(name string, cols []TableColumn) *Table {
	t := &Table{Name: name, Cols: cols}
	t.Vecs = make([]bat.Vector, len(cols))
	for i, c := range cols {
		t.Vecs[i] = bat.New(c.Typ, 0)
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Vecs) == 0 {
		return 0
	}
	return t.Vecs[0].Len()
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Append adds a row; vals must align with Cols.
func (t *Table) Append(vals []value.Value) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("table %s: expected %d values, got %d", t.Name, len(t.Cols), len(vals))
	}
	for i, v := range vals {
		t.Vecs[i].Append(v)
	}
	return nil
}

// Clone deep-copies the table (column vectors included) so a writer
// can mutate its private version while readers keep the published one.
func (t *Table) Clone() *Table {
	nt := &Table{Name: t.Name, Cols: append([]TableColumn(nil), t.Cols...)}
	nt.Vecs = make([]bat.Vector, len(t.Vecs))
	for i, v := range t.Vecs {
		nt.Vecs[i] = v.Clone()
	}
	return nt
}

// Sequence is a SQL SEQUENCE usable as a dimension range (§3.1). Its
// counter is shared, atomic and non-transactional: NEXT values drawn
// inside a rolled-back transaction are not returned to the sequence,
// as in every SQL database.
type Sequence struct {
	Name      string
	Typ       value.Type
	Start     int64
	Increment int64
	// MaxValue is inclusive, per CREATE SEQUENCE ... MAXVALUE n.
	MaxValue int64
	mu       sync.Mutex
	next     int64
	primed   bool
}

// Next returns the next sequence value.
func (s *Sequence) Next() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.primed {
		s.next = s.Start
		s.primed = true
	}
	v := s.next
	s.next += s.Increment
	return v
}

// Dimension converts the sequence into a dimension range. MAXVALUE is
// inclusive so End is MaxValue+Increment (exclusive form).
func (s *Sequence) Dimension(name string) array.Dimension {
	return array.Dimension{
		Name:  name,
		Typ:   s.Typ,
		Start: s.Start,
		End:   s.MaxValue + s.Increment,
		Step:  s.Increment,
	}
}

// Function is a catalog entry for white-box (PSM) and black-box
// (EXTERNAL NAME) functions (§6).
type Function struct {
	Name string
	Def  *ast.CreateFunction
	// External resolves EXTERNAL NAME entries to a registered Go
	// implementation; nil for white-box functions.
	External func(args []value.Value) (value.Value, error)
}

func key(name string) string { return strings.ToLower(name) }

// fnKey namespaces function names in the per-object version map
// (functions live in their own namespace, unlike tables/arrays/seqs).
func fnKey(name string) string { return "fn:" + key(name) }

// --- snapshots --------------------------------------------------------------

// Snapshot is one immutable catalog version. All lookup methods are
// lock-free and safe for any number of concurrent readers; the maps
// are never mutated after the snapshot is published.
type Snapshot struct {
	version int64
	// schemaVer changes only when the set or shape of objects changes
	// (CREATE/ALTER/DROP/replace), not on data writes; plan caches
	// stamp against it so DML commits don't evict plans.
	schemaVer int64
	tables    map[string]*Table
	arrays    map[string]*array.Array
	seqs      map[string]*Sequence
	funcs     map[string]*Function
	// vers tracks the per-object version (the snapshot version that
	// last wrote the name). Entries survive drops, so a transaction
	// that wrote a since-dropped object still conflicts.
	vers map[string]int64
}

// Version returns the snapshot's unique version stamp. Stamps are
// drawn from one monotone counter shared by committed snapshots and
// in-flight mutation views, so equal stamps imply identical contents.
func (s *Snapshot) Version() int64 { return s.version }

// SchemaVersion returns the stamp of the snapshot's schema: it
// changes on DDL (create/alter/drop/replace) but not on data writes,
// so plan-shaped caches keyed on it survive DML.
func (s *Snapshot) SchemaVersion() int64 { return s.schemaVer }

// Table looks up a table by name.
func (s *Snapshot) Table(name string) (*Table, bool) {
	t, ok := s.tables[key(name)]
	return t, ok
}

// Array looks up an array by name.
func (s *Snapshot) Array(name string) (*array.Array, bool) {
	a, ok := s.arrays[key(name)]
	return a, ok
}

// Sequence looks up a sequence by name.
func (s *Snapshot) Sequence(name string) (*Sequence, bool) {
	q, ok := s.seqs[key(name)]
	return q, ok
}

// Function looks up a function by name.
func (s *Snapshot) Function(name string) (*Function, bool) {
	f, ok := s.funcs[key(name)]
	return f, ok
}

// Names lists all object names of a kind (for the REPL's \d command).
func (s *Snapshot) Names(kind string) []string {
	var out []string
	switch kind {
	case "TABLE":
		for _, t := range s.tables {
			out = append(out, t.Name)
		}
	case "ARRAY":
		for _, a := range s.arrays {
			out = append(out, a.Name)
		}
	case "SEQUENCE":
		for _, q := range s.seqs {
			out = append(out, q.Name)
		}
	case "FUNCTION":
		for _, f := range s.funcs {
			out = append(out, f.Name)
		}
	}
	return out
}

func (s *Snapshot) checkFree(name string) error {
	k := key(name)
	if _, ok := s.tables[k]; ok {
		return fmt.Errorf("object %s already exists (table)", name)
	}
	if _, ok := s.arrays[k]; ok {
		return fmt.Errorf("object %s already exists (array)", name)
	}
	if _, ok := s.seqs[k]; ok {
		return fmt.Errorf("object %s already exists (sequence)", name)
	}
	return nil
}

func (s *Snapshot) cloneMaps() *Snapshot {
	return &Snapshot{
		schemaVer: s.schemaVer,
		tables:    maps.Clone(s.tables),
		arrays:    maps.Clone(s.arrays),
		seqs:      maps.Clone(s.seqs),
		funcs:     maps.Clone(s.funcs),
		vers:      maps.Clone(s.vers),
	}
}

// --- catalog root -----------------------------------------------------------

// Catalog is the schema root: an atomically swapped pointer to the
// current Snapshot plus the writer lock. Readers never block.
type Catalog struct {
	root    atomic.Pointer[Snapshot]
	writeMu sync.Mutex
	ver     atomic.Int64
	// cloneCount counts copy-on-write object privatizations
	// (ArrayForWrite, TableForWrite) and cloneBytes the bytes they
	// copied: for an array the segments its writes privatize, as the
	// store reports them (the privatization itself shares everything),
	// for a table its column vectors at 16 bytes a value. Both are
	// optional — telemetry instruments no-op on nil receivers.
	cloneCount *telemetry.Counter
	cloneBytes *telemetry.Counter
}

// SetMetrics wires the catalog's copy-on-write clone counters; a
// setup-time call made once per database.
func (c *Catalog) SetMetrics(count, bytes *telemetry.Counter) {
	c.cloneCount, c.cloneBytes = count, bytes
}

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{}
	v := c.nextVer()
	c.root.Store(&Snapshot{
		version:   v,
		schemaVer: v,
		tables:    map[string]*Table{},
		arrays:    map[string]*array.Array{},
		seqs:      map[string]*Sequence{},
		funcs:     map[string]*Function{},
		vers:      map[string]int64{},
	})
	return c
}

func (c *Catalog) nextVer() int64 { return c.ver.Add(1) }

// Snapshot returns the current catalog version for pinned reads.
func (c *Catalog) Snapshot() *Snapshot { return c.root.Load() }

// Legacy single-object accessors read through the current snapshot.
// They exist for bulk loaders, tools and tests; engine execution pins
// one snapshot per statement instead.

// Table looks up a table in the current snapshot.
func (c *Catalog) Table(name string) (*Table, bool) { return c.Snapshot().Table(name) }

// Array looks up an array in the current snapshot.
func (c *Catalog) Array(name string) (*array.Array, bool) { return c.Snapshot().Array(name) }

// Sequence looks up a sequence in the current snapshot.
func (c *Catalog) Sequence(name string) (*Sequence, bool) { return c.Snapshot().Sequence(name) }

// Function looks up a function in the current snapshot.
func (c *Catalog) Function(name string) (*Function, bool) { return c.Snapshot().Function(name) }

// Names lists object names of a kind in the current snapshot.
func (c *Catalog) Names(kind string) []string { return c.Snapshot().Names(kind) }

// Version returns the current snapshot's version stamp.
func (c *Catalog) Version() int64 { return c.Snapshot().Version() }

// PutTable registers a table as its own committed version; it errors
// if any object has the name.
func (c *Catalog) PutTable(t *Table) error {
	return c.autocommit(func(m *Mutation) error { return m.PutTable(t) })
}

// PutArray registers an array as its own committed version.
func (c *Catalog) PutArray(a *array.Array) error {
	return c.autocommit(func(m *Mutation) error { return m.PutArray(a) })
}

// PutSequence registers a sequence as its own committed version.
func (c *Catalog) PutSequence(s *Sequence) error {
	return c.autocommit(func(m *Mutation) error { return m.PutSequence(s) })
}

// PutFunction registers a function (replacing any previous version).
func (c *Catalog) PutFunction(f *Function) {
	_ = c.autocommit(func(m *Mutation) error { m.PutFunction(f); return nil })
}

// ReplaceArray swaps an array's definition as its own committed
// version (ALTER ARRAY outside a transaction).
func (c *Catalog) ReplaceArray(a *array.Array) {
	_ = c.autocommit(func(m *Mutation) error { m.ReplaceArray(a); return nil })
}

// Drop removes the named object of the given kind as its own
// committed version.
func (c *Catalog) Drop(kind, name string) error {
	return c.autocommit(func(m *Mutation) error { return m.Drop(kind, name) })
}

// autocommit wraps one catalog edit in an exclusive mutation.
func (c *Catalog) autocommit(fn func(m *Mutation) error) error {
	m := c.BeginExclusive()
	if err := fn(m); err != nil {
		m.Abort()
		return err
	}
	return m.Commit()
}

// --- mutations --------------------------------------------------------------

// Mutation is a copy-on-write edit of the catalog: a private working
// snapshot whose maps were copied from the base (objects stay shared
// until first write). Reads through View see the mutation's own
// writes over the pinned base. Exactly one of Commit or Abort must be
// called; the mutation is unusable afterwards.
type Mutation struct {
	c    *Catalog
	base *Snapshot
	work *Snapshot
	// baseVers records each written object's version in the base
	// snapshot (0 when absent) for first-committer-wins validation.
	baseVers map[string]int64
	changed  map[string]bool
	// cloned marks arrays/tables already privatized by a ForWrite.
	cloned    map[string]bool
	exclusive bool
	done      bool
	// schemaChanged records whether any touch was a schema write.
	schemaChanged bool
}

// BeginExclusive starts a pessimistic mutation: the writer lock is
// held until Commit/Abort, so the commit can never conflict. Used for
// autocommit statements, which must not fail with a retryable error.
func (c *Catalog) BeginExclusive() *Mutation { return c.begin(true) }

// BeginTx starts an optimistic mutation for an explicit transaction:
// writes accumulate privately and Commit validates first-committer-
// wins against whatever committed in the meantime.
func (c *Catalog) BeginTx() *Mutation { return c.begin(false) }

func (c *Catalog) begin(exclusive bool) *Mutation {
	if exclusive {
		c.writeMu.Lock()
	}
	base := c.root.Load()
	work := base.cloneMaps()
	work.version = c.nextVer()
	return &Mutation{
		c:         c,
		base:      base,
		work:      work,
		baseVers:  map[string]int64{},
		changed:   map[string]bool{},
		cloned:    map[string]bool{},
		exclusive: exclusive,
	}
}

// View returns the mutation's working snapshot: the pinned base plus
// this mutation's own writes. The pointer stays valid (and keeps
// reflecting later writes) until Commit/Abort.
func (m *Mutation) View() *Snapshot { return m.work }

// Base returns the snapshot the mutation (transaction) pinned at
// begin time.
func (m *Mutation) Base() *Snapshot { return m.base }

// touch records a write to an object key and refreshes the working
// snapshot's version stamps; schema writes (create/alter/drop) also
// bump the schema version, data writes don't.
func (m *Mutation) touch(k string, schema bool) {
	if !m.changed[k] {
		m.changed[k] = true
		m.baseVers[k] = m.base.vers[k]
	}
	v := m.c.nextVer()
	m.work.vers[k] = v
	m.work.version = v
	if schema {
		m.work.schemaVer = v
		m.schemaChanged = true
	}
}

// ArrayForWrite returns a private, mutable version of the named
// array: the first call clones the store — which shares every segment
// with the version it came from and copies one only when a write
// reaches it — later calls return the same clone. ok is false when the
// name is not an array.
func (m *Mutation) ArrayForWrite(name string) (*array.Array, bool) {
	k := key(name)
	a, ok := m.work.arrays[k]
	if !ok {
		return nil, false
	}
	if !m.cloned[k] {
		a = a.Clone()
		m.work.arrays[k] = a
		m.cloned[k] = true
		m.touch(k, false)
		m.c.cloneCount.Inc()
		if obs, ok := a.Store.(array.BulkWriter); ok {
			obs.ObserveCopies(m.c.cloneBytes.Add)
		}
	}
	return a, true
}

// TableForWrite is ArrayForWrite for relational tables.
func (m *Mutation) TableForWrite(name string) (*Table, bool) {
	k := key(name)
	t, ok := m.work.tables[k]
	if !ok {
		return nil, false
	}
	ck := "tbl:" + k
	if !m.cloned[ck] {
		t = t.Clone()
		m.work.tables[k] = t
		m.cloned[ck] = true
		m.touch(k, false)
		m.c.cloneCount.Inc()
		m.c.cloneBytes.Add(int64(t.NumRows()) * int64(len(t.Cols)) * 16)
	}
	return t, true
}

// PutTable registers a table in the working snapshot.
func (m *Mutation) PutTable(t *Table) error {
	if err := m.work.checkFree(t.Name); err != nil {
		return err
	}
	k := key(t.Name)
	m.work.tables[k] = t
	m.cloned["tbl:"+k] = true // freshly created: already private
	m.touch(k, true)
	return nil
}

// PutArray registers an array in the working snapshot.
func (m *Mutation) PutArray(a *array.Array) error {
	if err := m.work.checkFree(a.Name); err != nil {
		return err
	}
	k := key(a.Name)
	m.work.arrays[k] = a
	m.cloned[k] = true // freshly created: already private
	m.touch(k, true)
	return nil
}

// PutSequence registers a sequence in the working snapshot.
func (m *Mutation) PutSequence(s *Sequence) error {
	if err := m.work.checkFree(s.Name); err != nil {
		return err
	}
	k := key(s.Name)
	m.work.seqs[k] = s
	m.touch(k, true)
	return nil
}

// PutFunction registers a function (replacing any previous version).
func (m *Mutation) PutFunction(f *Function) {
	m.work.funcs[key(f.Name)] = f
	m.touch(fnKey(f.Name), true)
}

// ReplaceArray swaps an array's definition in the working snapshot
// (ALTER ARRAY builds a fresh array rather than mutating in place).
func (m *Mutation) ReplaceArray(a *array.Array) {
	k := key(a.Name)
	m.work.arrays[k] = a
	m.cloned[k] = true
	m.touch(k, true)
}

// Drop removes the named object of the given kind from the working
// snapshot.
func (m *Mutation) Drop(kind, name string) error {
	k := key(name)
	switch kind {
	case "TABLE":
		if _, ok := m.work.tables[k]; !ok {
			return fmt.Errorf("no such table %s", name)
		}
		delete(m.work.tables, k)
	case "ARRAY":
		if _, ok := m.work.arrays[k]; !ok {
			return fmt.Errorf("no such array %s", name)
		}
		delete(m.work.arrays, k)
	case "SEQUENCE":
		if _, ok := m.work.seqs[k]; !ok {
			return fmt.Errorf("no such sequence %s", name)
		}
		delete(m.work.seqs, k)
	case "FUNCTION":
		if _, ok := m.work.funcs[k]; !ok {
			return fmt.Errorf("no such function %s", name)
		}
		delete(m.work.funcs, k)
		m.touch(fnKey(name), true)
		return nil
	default:
		return fmt.Errorf("unknown object kind %s", kind)
	}
	m.touch(k, true)
	return nil
}

// Savepoint captures the mutation's state at a statement boundary,
// and forces the next write to re-clone its object: a statement that
// fails mid-execution rolls back to exactly this state (statement
// atomicity inside a transaction), with every object it touched still
// unmutated because the statement wrote to fresh clones.
type Savepoint struct {
	work          *Snapshot
	baseVers      map[string]int64
	changed       map[string]bool
	cloned        map[string]bool
	schemaChanged bool
}

// Savepoint begins a statement inside the mutation.
func (m *Mutation) Savepoint() *Savepoint {
	sp := &Savepoint{
		work:     m.work.cloneMaps(),
		baseVers: maps.Clone(m.baseVers),
		changed:  maps.Clone(m.changed),
		cloned:   m.cloned,
	}
	sp.work.version = m.work.version
	sp.schemaChanged = m.schemaChanged
	// Reset the clone marks: the statement's first write to any object
	// clones it afresh, so the savepoint's object pointers stay
	// unmutated whatever the statement does before failing.
	m.cloned = map[string]bool{}
	return sp
}

// RollbackTo discards everything the mutation did after the
// savepoint.
func (m *Mutation) RollbackTo(sp *Savepoint) {
	m.work = sp.work
	m.baseVers = sp.baseVers
	m.changed = sp.changed
	m.cloned = sp.cloned
	m.schemaChanged = sp.schemaChanged
}

// Commit publishes the mutation. Exclusive mutations install their
// working snapshot directly (the writer lock was held throughout).
// Optimistic mutations validate first-committer-wins per written
// object — ErrConflict when another commit got there first — and
// rebase their changes onto the latest root otherwise, so disjoint
// transactions commit concurrently.
func (m *Mutation) Commit() error {
	if m.done {
		return errors.New("catalog: mutation already finished")
	}
	// The commit fault point fires before the mutation is marked done,
	// so the caller's deferred Abort still runs — releasing the writer
	// lock — whether the injected failure is an error or a panic.
	if err := faultinject.Hit("catalog.commit"); err != nil {
		return err
	}
	m.done = true
	if m.exclusive {
		if len(m.changed) > 0 {
			m.c.root.Store(m.work)
		}
		m.c.writeMu.Unlock()
		return nil
	}
	if len(m.changed) == 0 {
		return nil // read-only transaction
	}
	m.c.writeMu.Lock()
	defer m.c.writeMu.Unlock()
	cur := m.c.root.Load()
	if cur == m.base {
		m.c.root.Store(m.work)
		return nil
	}
	for k := range m.changed {
		if cur.vers[k] != m.baseVers[k] {
			return fmt.Errorf("%w (object %s)", ErrConflict, strings.TrimPrefix(k, "fn:"))
		}
	}
	merged := cur.cloneMaps()
	merged.version = m.c.nextVer()
	if m.schemaChanged {
		merged.schemaVer = merged.version
	}
	for k := range m.changed {
		merged.vers[k] = m.work.vers[k]
		if fn, ok := strings.CutPrefix(k, "fn:"); ok {
			applyEntry(merged.funcs, m.work.funcs, fn)
			continue
		}
		applyEntry(merged.tables, m.work.tables, k)
		applyEntry(merged.arrays, m.work.arrays, k)
		applyEntry(merged.seqs, m.work.seqs, k)
	}
	m.c.root.Store(merged)
	return nil
}

// Abort discards the mutation.
func (m *Mutation) Abort() {
	if m.done {
		return
	}
	m.done = true
	if m.exclusive {
		m.c.writeMu.Unlock()
	}
}

// applyEntry copies the working state of one key into the merged map:
// present in work → overwrite, absent in work → delete (dropped).
func applyEntry[T any](dst, work map[string]T, k string) {
	if v, ok := work[k]; ok {
		dst[k] = v
	} else {
		delete(dst, k)
	}
}
