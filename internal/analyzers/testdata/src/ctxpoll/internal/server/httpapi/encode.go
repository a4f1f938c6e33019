package httpapi

import (
	"context"

	"sciql"
)

func appendRow(buf []byte, b *sciql.Batch, row int) []byte { return buf }

// The JSON body is built from the same column batches, under the same
// rule: poll the request context once per batch.
func encodeNoPoll(rows *sciql.Rows) []byte {
	var buf []byte
	for rows.Next() { // want `batch-encode loop without a cancellation poll`
		b, lo, hi := rows.Batch(4096)
		for r := lo; r < hi; r++ {
			buf = appendRow(buf, b, r)
		}
	}
	return buf
}

func encodePolls(ctx context.Context, rows *sciql.Rows) ([]byte, error) {
	var buf []byte
	for rows.Next() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, lo, hi := rows.Batch(4096)
		for r := lo; r < hi; r++ {
			buf = appendRow(buf, b, r)
		}
	}
	return buf, rows.Err()
}
