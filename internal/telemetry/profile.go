package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpStats accumulates the runtime statistics of one logical plan
// operator during a profiled (EXPLAIN ANALYZE) execution. Fields are
// atomics because parallel workers flush into them concurrently — but
// only once per scan chunk, never per row, so profiling does not
// contend on the hot path.
type OpStats struct {
	RowsIn  atomic.Int64
	RowsOut atomic.Int64
	Chunks  atomic.Int64
	Cells   atomic.Int64
	// Skipped counts scan chunks eliminated by zone-map pruning before
	// any of their cells were visited (chunk skipping).
	Skipped atomic.Int64
	// Nanos is cumulative operator wall time summed across workers
	// (like per-worker totals in parallel EXPLAIN ANALYZE elsewhere),
	// inclusive of child work on fused pipelines.
	Nanos atomic.Int64
	// VecBatches / RowBatches count how many chunks (or batches) ran
	// through the kernel pipeline vs the row interpreter; together they
	// give the operator's observed execution mode.
	VecBatches atomic.Int64
	RowBatches atomic.Int64
	// detail is what only this kind of operator has to say about the run
	// (a join's build side and key shape, a tiling's window), rendered
	// after the counters.
	detail atomic.Pointer[string]
}

// SetDetail records the operator-specific part of the annotation.
func (o *OpStats) SetDetail(s string) { o.detail.Store(&s) }

// AddNanos accumulates operator wall time.
func (o *OpStats) AddNanos(d time.Duration) { o.Nanos.Add(d.Nanoseconds()) }

// Mode renders the observed execution mode: "vectorized",
// "interpreted", "mixed" or "" when the operator never ran.
func (o *OpStats) Mode() string {
	v, r := o.VecBatches.Load(), o.RowBatches.Load()
	switch {
	case v > 0 && r > 0:
		return "mixed"
	case v > 0:
		return "vectorized"
	case r > 0:
		return "interpreted"
	}
	return ""
}

// Ran reports whether the operator recorded any activity.
func (o *OpStats) Ran() bool {
	return o.Nanos.Load() > 0 || o.RowsOut.Load() > 0 || o.RowsIn.Load() > 0 ||
		o.Chunks.Load() > 0 || o.Cells.Load() > 0 || o.Skipped.Load() > 0
}

// Profile is the per-query collector EXPLAIN ANALYZE threads through
// execution: one OpStats slot per logical operator kind. A session
// arms it for exactly one statement; unprofiled statements carry a nil
// Profile and skip every collection site on a single pointer test.
type Profile struct {
	Start time.Time
	// Scan covers array/table scans (cumulative over all scans of the
	// statement); Filter the residual WHERE, Having the post-filter,
	// Project the target list, Aggregate value grouping, Tiled
	// structural (tiling) grouping, Sort/Distinct/Limit the result
	// finishers, Join the join operator, Output the statement's final
	// row count and total wall time. DML covers an array UPDATE, DELETE
	// or SET: cells scanned, cells matched (rows), and in its detail what
	// the write copied and how its expressions ran.
	Scan, Filter, Having, Project, Aggregate, Tiled, Sort, Distinct, Limit, Join, Output, DML OpStats
}

// NewProfile starts a profile clock.
func NewProfile() *Profile { return &Profile{Start: time.Now()} }

// RenderOp formats one operator's annotation suffix for the analyzed
// plan tree: " (time=1.2ms rows=357 ...)" plus the observed execution
// mode. Empty when the operator never ran.
func RenderOp(o *OpStats, showIn bool) string {
	if o == nil || !o.Ran() {
		return " (not executed)"
	}
	var sb strings.Builder
	sb.WriteString(" (time=")
	sb.WriteString(fmtDuration(time.Duration(o.Nanos.Load())))
	if showIn && o.RowsIn.Load() > 0 {
		fmt.Fprintf(&sb, " rows_in=%d", o.RowsIn.Load())
	}
	fmt.Fprintf(&sb, " rows=%d", o.RowsOut.Load())
	if c := o.Chunks.Load(); c > 0 {
		fmt.Fprintf(&sb, " chunks=%d", c)
	}
	if c := o.Cells.Load(); c > 0 {
		fmt.Fprintf(&sb, " cells=%d", c)
	}
	if c := o.Skipped.Load(); c > 0 {
		fmt.Fprintf(&sb, " chunks_skipped=%d", c)
	}
	if d := o.detail.Load(); d != nil {
		sb.WriteByte(' ')
		sb.WriteString(*d)
	}
	sb.WriteByte(')')
	if m := o.Mode(); m != "" {
		sb.WriteString(" [")
		sb.WriteString(m)
		sb.WriteByte(']')
	}
	return sb.String()
}

// fmtDuration rounds a duration to a readable precision for plan
// annotations (sub-millisecond times keep microsecond resolution).
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(time.Microsecond).String()
}

// --- trace events -----------------------------------------------------------

// TracePhase identifies one lifecycle point of a traced statement.
type TracePhase int

const (
	// TraceParse fires after SQL text is parsed (or fetched from the
	// statement cache); D is the parse time.
	TraceParse TracePhase = iota
	// TracePlan fires after the planner resolved the statement's
	// routing decision; D is the planning time (≈0 on a plan-cache
	// hit).
	TracePlan
	// TraceExecStart fires when execution begins.
	TraceExecStart
	// TraceFirstRow fires when the first row is produced; D is the
	// time from execution start to first row.
	TraceFirstRow
	// TraceClose fires when the statement (or its cursor) finishes; D
	// is the total wall time from execution start and Rows the number
	// of rows produced.
	TraceClose
)

// String names the phase for structured log lines.
func (p TracePhase) String() string {
	switch p {
	case TraceParse:
		return "parse"
	case TracePlan:
		return "plan"
	case TraceExecStart:
		return "exec-start"
	case TraceFirstRow:
		return "first-row"
	case TraceClose:
		return "close"
	}
	return "unknown"
}

// TraceEvent is one observation delivered to a trace hook.
type TraceEvent struct {
	Phase TracePhase
	// Query is the SQL text (as submitted; multi-statement scripts
	// trace per script).
	Query string
	// Kind is the statement kind ("select", "exec", ...).
	Kind string
	// D is the phase duration (see the TracePhase constants).
	D time.Duration
	// Rows is the row count at TraceClose (0 before).
	Rows int64
	// Err is the terminal error, if the phase observed one.
	Err error
	// When is the event timestamp.
	When time.Time
}
