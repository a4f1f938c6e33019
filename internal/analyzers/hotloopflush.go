package analyzers

import (
	"go/ast"

	"repro/internal/analyzers/analysis"
)

// HotLoopFlush enforces the telemetry discipline PR 6 established for
// the cell-at-a-time hot paths in internal/exec and internal/bat:
// telemetry instruments are shared atomics, and touching one per cell
// turns a register loop into a cache-line ping-pong between morsel
// workers. Hot loops accumulate into plain local counters
// (streamCounts) and publish with a handful of atomic adds once per
// chunk (flushStreamCounts).
//
// The analyzer flags any atomic instrument mutation — Inc, Add, Set,
// Observe on telemetry.Counter/Gauge/Histogram, or OpStats.AddNanos —
// that is lexically inside a per-cell context:
//
//   - a for/range statement body, or
//   - a store-scan visitor literal (func(coords []int64,
//     vals []value.Value) bool), which is the per-cell "loop" of every
//     storage scheme even though no for keyword appears.
//
// The resource governor's Budget.Charge follows the same discipline:
// every charge is an atomic add on the per-statement and database-wide
// counters (plus a gauge store), so charging per cell has the same
// cache-line ping-pong cost as a per-cell instrument. Hot loops
// accumulate byte estimates into plain locals and charge once per
// chunk (chargeBudget), and the analyzer flags Budget.Charge in
// per-cell contexts exactly like an instrument mutation.
//
// The columnar scan's batch visitor (func(array.ColumnBatch) bool) is
// deliberately not a per-cell context: a batch is up to 4096 cells, so
// publishing counters, operator time or a budget charge once per batch
// is the sanctioned granularity there (scanChunk and its consumers) —
// but a loop over the batch's rows inside it is per-cell like any
// other for statement.
//
// Calling a flush helper (which does the atomic adds) from a per-chunk
// loop stays legal: the analyzer is intra-procedural by design — the
// sanctioned pattern routes atomics through a once-per-chunk function,
// and that is exactly what it cannot see into.
//
// PR 10 extends the scope to the network server packages
// (internal/server and its pgwire/httpapi subpackages): a DataRow
// streaming loop runs per row of a result, which for array queries is
// the same cell-scale cardinality as a store scan, so per-row
// instrument mutations there get the same treatment. Results travel as
// column batches, and — like the batch visitor above — a loop that
// takes one batch from the cursor per iteration (pullsBatch: it calls
// sciql.Rows.Batch or exec.Cursor.NextBatch) is a per-batch context:
// flushing the rows-sent counter once per batch there is the
// sanctioned granularity (sendRows is the reference pattern), while
// the loop over the batch's rows inside it is per-row and flagged.
var HotLoopFlush = &analysis.Analyzer{
	Name: "hotloopflush",
	Doc: "no telemetry atomics or governor budget charges inside per-cell loops in " +
		"internal/exec, internal/bat, or the internal/server row-streaming paths; " +
		"accumulate into locals and flush once per chunk",
	Run: runHotLoopFlush,
}

// telemetryAtomicMethods are the instrument mutators that compile to
// shared atomic RMWs.
var telemetryAtomicMethods = map[string]bool{
	"Inc": true, "Add": true, "Set": true, "Observe": true, "AddNanos": true,
}

// telemetryInstrumentTypes are the shared-atomic instrument types of
// internal/telemetry.
var telemetryInstrumentTypes = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "OpStats": true,
}

func runHotLoopFlush(pass *analysis.Pass) (any, error) {
	if !pkgPathHasSuffix(pass.Pkg, "internal/exec") && !pkgPathHasSuffix(pass.Pkg, "internal/bat") &&
		!pkgPathHasSuffix(pass.Pkg, "internal/server") &&
		!pkgPathHasSuffix(pass.Pkg, "internal/server/pgwire") &&
		!pkgPathHasSuffix(pass.Pkg, "internal/server/httpapi") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		hotWalk(pass, f, false)
	}
	return nil, nil
}

// hotWalk descends n reporting telemetry atomics reached with
// hot=true (inside a per-cell context). Function literals reset or
// escalate the state: a visitor literal is hot regardless of where it
// is defined; any other literal starts cold (it runs when called, not
// where it is written).
func hotWalk(pass *analysis.Pass, n ast.Node, hot bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.ForStmt:
			if x.Init != nil {
				hotWalk(pass, x.Init, hot)
			}
			if x.Cond != nil {
				hotWalk(pass, x.Cond, hot)
			}
			if x.Post != nil {
				hotWalk(pass, x.Post, hot)
			}
			hotWalk(pass, x.Body, !pullsBatch(pass, x.Body))
			return false
		case *ast.RangeStmt:
			hotWalk(pass, x.X, hot)
			hotWalk(pass, x.Body, !pullsBatch(pass, x.Body))
			return false
		case *ast.FuncLit:
			hotWalk(pass, x.Body, isCellVisitor(pass.TypeOf(x)))
			return false
		case *ast.CallExpr:
			if !hot {
				return true
			}
			if recv, method, ok := methodCall(x); ok {
				if telemetryAtomicMethods[method] {
					if pkg, name, ok := namedFrom(pass.TypeOf(recv)); ok &&
						telemetryInstrumentTypes[name] && pkgPathHasSuffix(pkg, "telemetry") {
						pass.Reportf(x.Pos(),
							"telemetry %s.%s() inside a per-cell loop: accumulate into a local and flush once per chunk", name, method)
					}
				}
				if method == "Charge" {
					if pkg, name, ok := namedFrom(pass.TypeOf(recv)); ok &&
						name == "Budget" && pkgPathHasSuffix(pkg, "governor") {
						pass.Reportf(x.Pos(),
							"governor Budget.Charge() inside a per-cell loop: accumulate bytes into a local and charge once per chunk")
					}
				}
			}
		}
		return true
	})
}
