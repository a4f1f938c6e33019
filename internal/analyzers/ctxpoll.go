package analyzers

import (
	"go/ast"

	"repro/internal/analyzers/analysis"
)

// CtxPoll enforces the cancellation convention PR 2 established for
// the exec scan paths: any loop that can iterate over chunk-scale data
// must poll the statement context periodically, so a canceled query
// (Ctrl-C in the REPL, a closed driver connection, a fired deadline)
// stops the scan instead of walking millions of cells to completion.
//
// In internal/exec the chunk-scale iteration is almost never a for
// statement — it is a visitor literal handed to the store: the column
// batch visitor (func(array.ColumnBatch) bool) every SELECT scan runs
// through (scanChunk is the one place that walks a columnar chunk), or
// the per-cell visitor (func(coords []int64, vals []value.Value) bool)
// ALTER, slicing and INSERT's shift still hand to Store.Scan. The
// analyzer requires every such literal to contain one of:
//
//   - a ctx.Err() / ctx.Done() call on a context.Context value (once
//     per batch; the `visited&1023 == 0` periodic pattern per cell),
//   - a call to Engine.canceled(), the serial interpreter's poll,
//   - a call forwarding to another visitor value of the same kind (a
//     wrapper: its callee polls, it must not).
//
// The typed row-key table (bat.RowKeys / bat.KeyTable) is the other
// chunk-scale iteration of internal/exec: hash-join builds, DISTINCT and
// the hashed tiling window extract and insert keys block by block in
// plain for loops. A loop that calls RowKeys.Fill or KeyTable.Build
// must poll the same way, once per block. (Calls outside a loop — one
// morsel of a pool fan-out, which polls between morsels itself — are
// not loops and not checked.)
//
// Array DML is a consumer of the same scan: its per-batch step is a
// dataset visitor (func(*Dataset) error, or bool) that scanChunk, the
// polling driver, calls once per batch, and that is where bulk writes
// (array.BulkWriter.Scatter, through dmlScan.scatter) belong. A loop
// that scatters outside such a visitor — resetting the cells a DELETE
// collected, block by block — writes a batch per iteration with no scan
// polling for it, so it must poll itself; loops nested inside it ride
// on its poll.
//
// PR 10 extends the same convention to the network server's
// connection read loops in internal/server/pgwire: any for-loop that
// pulls protocol frames (Reader.Peek under a poll deadline, or
// Reader.ReadMessage) runs for the lifetime of a client connection,
// and must poll a context between frames so a draining server's
// shutdown reaches idle connections instead of leaking handler
// goroutines until the client disconnects on its own. Client-side
// loops that bound each read with a socket deadline instead can be
// suppressed with //lint:allow ctxpoll <reason>.
//
// The result side of the same packages (pgwire and httpapi) streams
// column batches out of a cursor: a loop that takes a batch per
// iteration (sciql.Rows.Batch) and encodes it runs for as long as the
// result is — a materialized million-row result does not pass through
// any polling scan while it is sent — so it must poll the statement's
// context once per batch, and a fetch stops within one batch of a
// cancel.
//
// Visitors over provably tiny domains can be suppressed with
// //lint:allow ctxpoll <reason>.
var CtxPoll = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc: "store-scan visitor literals (per cell and per column batch), key-table build loops and bulk-write loops " +
		"outside a scan visitor in internal/exec must poll ctx.Err()/Done() or Engine.canceled() so cancellation " +
		"stops chunk-scale scans and writes; in internal/server/pgwire and httpapi, connection read " +
		"loops must poll a shutdown context between frames and batch-encode loops the statement context per batch",
	Run: runCtxPoll,
}

func runCtxPoll(pass *analysis.Pass) (any, error) {
	if pkgPathHasSuffix(pass.Pkg, "internal/server/pgwire") || pkgPathHasSuffix(pass.Pkg, "internal/server/httpapi") {
		return runCtxPollServer(pass)
	}
	if !pkgPathHasSuffix(pass.Pkg, "internal/exec") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		checkBulkWriteLoops(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			var loop *ast.BlockStmt
			switch x := n.(type) {
			case *ast.ForStmt:
				loop = x.Body
			case *ast.RangeStmt:
				loop = x.Body
			}
			if loop != nil && loopBuildsKeys(pass, loop) && !polls(pass, loop) {
				pass.Reportf(n.Pos(),
					"key-table build loop without a cancellation poll: check ctx.Err()/Done() or e.canceled() once per block of rows")
			}
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			switch t := pass.TypeOf(lit); {
			case isCellVisitor(t) && !polls(pass, lit.Body):
				pass.Reportf(lit.Pos(),
					"store-scan visitor without a cancellation poll: check ctx.Err()/Done() or e.canceled() periodically (e.g. every visited&1023 cells)")
			case isBatchVisitor(t) && !polls(pass, lit.Body):
				pass.Reportf(lit.Pos(),
					"column-batch visitor without a cancellation poll: check ctx.Err()/Done() or e.canceled() once per batch")
			}
			// Nested visitors (a visitor building another scan) are
			// still inspected independently.
			return true
		})
	}
	return nil, nil
}

// checkBulkWriteLoops reports the outermost loops that scatter outside
// a dataset visitor without polling.
func checkBulkWriteLoops(pass *analysis.Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch x := n.(type) {
		case *ast.FuncLit:
			return !isDatasetVisitor(pass.TypeOf(x))
		case *ast.ForStmt:
			body = x.Body
		case *ast.RangeStmt:
			body = x.Body
		}
		if body == nil || !scatters(pass, body) {
			return true
		}
		if !polls(pass, body) {
			pass.Reportf(n.Pos(),
				"bulk-write loop outside a scan visitor without a cancellation poll: check ctx.Err()/Done() or e.canceled() once per block scattered")
		}
		return false
	})
}

// scatters reports whether body writes a batch of cells — a call to
// BulkWriter.Scatter or to dmlScan.scatter, the one place that makes it
// — outside any dataset visitor literal it contains.
func scatters(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && isDatasetVisitor(pass.TypeOf(lit)) {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if recv, method, ok := methodCall(call); ok {
				found = method == "Scatter" && isNamedType(pass.TypeOf(recv), "array", "BulkWriter") ||
					method == "scatter" && isNamedType(pass.TypeOf(recv), "internal/exec", "dmlScan")
			}
		}
		return !found
	})
	return found
}

// runCtxPollServer checks the server loop rules: a for/range loop that
// pulls frames from a pgwire.Reader, or column batches from a result
// cursor, must poll a context.
func runCtxPollServer(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch x := n.(type) {
			case *ast.ForStmt:
				body = x.Body
			case *ast.RangeStmt:
				body = x.Body
			default:
				return true
			}
			if loopReadsFrames(pass, body) && !containsCtxPoll(pass, body) {
				pass.Reportf(n.Pos(),
					"connection read loop without a shutdown poll: check ctx.Err()/Done() between frames so draining reaches idle connections")
			}
			if pullsBatch(pass, body) && !containsCtxPoll(pass, body) {
				pass.Reportf(n.Pos(),
					"batch-encode loop without a cancellation poll: check the statement's ctx.Err()/Done() once per batch so a large result stops within one batch of a cancel")
			}
			return true
		})
	}
	return nil, nil
}

// loopReadsFrames reports whether body calls Reader.Peek or
// Reader.ReadMessage on a pgwire Reader — the marks of a connection
// message pump.
func loopReadsFrames(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := methodCall(call); ok &&
			(method == "Peek" || method == "ReadMessage") &&
			isNamedType(pass.TypeOf(recv), "internal/server/pgwire", "Reader") {
			found = true
			return false
		}
		return true
	})
	return found
}

// containsCtxPoll reports whether node contains a ctx.Err()/ctx.Done()
// call on a context.Context value.
func containsCtxPoll(pass *analysis.Pass, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := methodCall(call); ok &&
			(method == "Err" || method == "Done") &&
			isContextType(pass.TypeOf(recv)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopBuildsKeys reports whether body calls RowKeys.Fill or
// KeyTable.Build — a block of the typed row-key table's construction.
func loopBuildsKeys(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if recv, method, ok := methodCall(call); ok {
				found = method == "Fill" && isNamedType(pass.TypeOf(recv), "bat", "RowKeys") ||
					method == "Build" && isNamedType(pass.TypeOf(recv), "bat", "KeyTable")
			}
		}
		return !found
	})
	return found
}

// polls reports whether body (a visitor literal's or a loop's) contains
// a cancellation poll or forwards to another visitor.
func polls(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := methodCall(call); ok {
			switch method {
			case "Err", "Done":
				if isContextType(pass.TypeOf(recv)) {
					found = true
					return false
				}
			case "canceled":
				if isNamedType(pass.TypeOf(recv), "internal/exec", "Engine") {
					found = true
					return false
				}
			}
			return true
		}
		// Forwarding wrapper: calling a value that is itself a visitor
		// delegates control to a polling callee.
		if t := pass.TypeOf(call.Fun); isCellVisitor(t) || isBatchVisitor(t) {
			found = true
			return false
		}
		return true
	})
	return found
}
