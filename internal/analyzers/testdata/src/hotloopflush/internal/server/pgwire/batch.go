package pgwire

import (
	"sciql"
)

func writeSlots(b *sciql.Batch, row int) {}

// The batch-encode loop of sendRows: one iteration takes one column
// batch from the cursor, so flushing the rows-sent counter there is
// once per batch — the sanctioned granularity.
func sendBatchesFlushedPerBatch(m *serverMetrics, rows *sciql.Rows) {
	for rows.Next() {
		b, lo, hi := rows.Batch(4096)
		for r := lo; r < hi; r++ {
			writeSlots(b, r)
		}
		m.rowsSent.Add(int64(hi - lo))
	}
}

// The loop over the batch's rows is still per row.
func sendBatchesFlushedPerRow(m *serverMetrics, rows *sciql.Rows) {
	for rows.Next() {
		b, lo, hi := rows.Batch(4096)
		for r := lo; r < hi; r++ {
			writeSlots(b, r)
			m.rowsSent.Inc() // want `telemetry Counter\.Inc\(\) inside a per-cell loop`
		}
	}
}

// A loop that reads row by row takes no batch: per row, as before.
func sendRowByRow(m *serverMetrics, rows *sciql.Rows) {
	for rows.Next() {
		_ = rows.Values()
		m.rowsSent.Inc() // want `telemetry Counter\.Inc\(\) inside a per-cell loop`
	}
}

// Taking the batch inside a nested literal does not make the outer
// loop per batch.
func batchInLiteral(m *serverMetrics, rows *sciql.Rows) {
	for rows.Next() {
		take := func() { rows.Batch(1) }
		take()
		m.rowsSent.Inc() // want `telemetry Counter\.Inc\(\) inside a per-cell loop`
	}
}
