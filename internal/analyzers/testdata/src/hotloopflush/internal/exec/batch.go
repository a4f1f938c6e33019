package exec

import (
	"array"
	"governor"
)

// The column-batch loop: a batch is the sanctioned flush granularity,
// its rows are not.

func batchFlush(m *metrics, b *governor.Budget, chunk array.ColumnChunk) {
	chunk(4096, func(batch array.ColumnBatch) bool {
		m.cells.Add(int64(len(batch)))
		m.op.AddNanos(1)
		return b.Charge(int64(8*len(batch))) == nil
	})
}

func batchRowsFlagged(m *metrics, b *governor.Budget, chunk array.ColumnChunk) {
	chunk(4096, func(batch array.ColumnBatch) bool {
		for range batch {
			m.cells.Inc()   // want `telemetry Counter\.Inc\(\) inside a per-cell loop`
			_ = b.Charge(8) // want `governor Budget\.Charge\(\) inside a per-cell loop`
		}
		return true
	})
}

// Written inside a per-chunk loop, the batch visitor still starts cold.
func batchInChunkLoop(m *metrics, chunks []array.ColumnChunk) {
	for _, chunk := range chunks {
		chunk(4096, func(batch array.ColumnBatch) bool {
			m.cells.Add(int64(len(batch)))
			return true
		})
	}
}
