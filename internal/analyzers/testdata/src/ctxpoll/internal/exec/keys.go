package exec

import (
	"bat"
	"context"
)

// The typed row-key table is extracted and built block by block in
// plain loops; each block is chunk-scale work, so the loop polls.

// Flagging case: a DISTINCT over millions of rows that cannot be
// canceled before the last block.
func keysNoPoll(keys *bat.RowKeys, table *bat.KeyTable) {
	for lo := 0; lo < keys.Len(); lo += 1 << 16 { // want `key-table build loop without a cancellation poll`
		keys.Fill(lo, lo+1<<16)
		table.Build(0, lo, lo+1<<16)
	}
}

// One poll per block through the statement context. Clean.
func keysPollCtx(ctx context.Context, keys *bat.RowKeys, table *bat.KeyTable) error {
	for lo := 0; lo < keys.Len(); lo += 1 << 16 {
		if err := ctx.Err(); err != nil {
			return err
		}
		table.Build(0, lo, lo+1<<16)
	}
	return nil
}

// The serial interpreter's poll. Clean.
func keysPollEngine(e *Engine, keys *bat.RowKeys) {
	for lo := 0; lo < keys.Len(); lo += 1 << 16 {
		if e.canceled() {
			return
		}
		keys.Fill(lo, lo+1<<16)
	}
}

// Flagging case: the partition loop around a polling block loop is
// fine, but a partition loop that builds whole partitions is not.
func keysPartitionsNoPoll(keys *bat.RowKeys, table *bat.KeyTable, parts int) {
	for p := range parts { // want `key-table build loop without a cancellation poll`
		table.Build(p, 0, keys.Len())
	}
}

// One morsel of a pool fan-out is not a loop: the pool polls between
// morsels. Clean.
func keysMorsel(keys *bat.RowKeys, lo, hi int) {
	keys.Fill(lo, hi)
}

func keysSuppressed(keys *bat.RowKeys) {
	//lint:allow ctxpoll at most a handful of anchor rows, never chunk-scale
	for lo := 0; lo < keys.Len(); lo += 64 {
		keys.Fill(lo, lo+64)
	}
}
