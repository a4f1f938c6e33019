package exec

import (
	"array"
	"context"
)

// The column-batch loop: every batch visitor polls once per batch.

func batchNoPoll(chunk array.ColumnChunk) int {
	rows := 0
	chunk(4096, func(b array.ColumnBatch) bool { // want `column-batch visitor without a cancellation poll`
		rows += len(b)
		return true
	})
	return rows
}

func batchPollsErr(ctx context.Context, chunk array.ColumnChunk) (rows int, err error) {
	chunk(4096, func(b array.ColumnBatch) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		rows += len(b)
		return true
	})
	return rows, err
}

func batchPollsEngine(e *Engine, chunk array.ColumnChunk) {
	chunk(4096, func(b array.ColumnBatch) bool {
		return !e.canceled()
	})
}

// A wrapper that forwards to another batch visitor leaves the poll to
// its callee.
func batchForwarding(chunk array.ColumnChunk, inner func(b array.ColumnBatch) bool) {
	chunk(4096, func(b array.ColumnBatch) bool {
		return len(b) == 0 || inner(b)
	})
}

func batchSuppressed(chunk array.ColumnChunk) {
	//lint:allow ctxpoll one 3x3 tile, a single batch by construction
	chunk(4096, func(b array.ColumnBatch) bool {
		return true
	})
}
