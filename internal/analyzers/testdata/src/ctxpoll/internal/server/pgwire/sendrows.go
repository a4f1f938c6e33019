package pgwire

import (
	"context"

	"sciql"
)

type Writer struct{}

func (w *Writer) WriteDataRows(b *sciql.Batch, lo, hi int) error { return nil }

// A batch-encode loop runs for as long as the result is; a
// materialized result passes through no polling scan while it is sent,
// so without a poll a canceled million-row fetch streams to the end.
func sendRowsNoPoll(w *Writer, rows *sciql.Rows) error {
	for rows.Next() { // want `batch-encode loop without a cancellation poll`
		b, lo, hi := rows.Batch(4096)
		if err := w.WriteDataRows(b, lo, hi); err != nil {
			return err
		}
	}
	return rows.Err()
}

// The sanctioned shape: the statement context, once per batch.
func sendRowsPolls(ctx context.Context, w *Writer, rows *sciql.Rows) error {
	for rows.Next() {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, lo, hi := rows.Batch(4096)
		if err := w.WriteDataRows(b, lo, hi); err != nil {
			return err
		}
	}
	return rows.Err()
}

// The poll belongs to the batch loop, not to the row loop inside it —
// but either stops the fetch, so both are accepted.
func sendRowsPollsPerRow(ctx context.Context, w *Writer, rows *sciql.Rows) {
	for rows.Next() {
		b, lo, hi := rows.Batch(4096)
		for r := lo; r < hi; r++ {
			if ctx.Err() != nil {
				return
			}
			w.WriteDataRows(b, r, r+1)
		}
	}
}

// Reading one row's slots (the database/sql driver's Next) is not a
// loop over batches.
func oneRow(w *Writer, rows *sciql.Rows) {
	if rows.Next() {
		b, lo, hi := rows.Batch(1)
		w.WriteDataRows(b, lo, hi)
	}
}
