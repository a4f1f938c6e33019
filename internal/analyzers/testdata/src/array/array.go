// Package array is a fixture stand-in for the engine's array package:
// the analyzers recognize the column-batch visitor signature by the
// parameter type's package path suffix ("array") and type name.
package array

type ColumnBatch []int

type ColumnChunk func(max int, visit func(b ColumnBatch) bool)

// Vector stands in for bat.Vector in the bulk-write face.
type Vector interface{ Len() int }

// BulkWriter is the stand-in for the store face DML writes through; the
// ctxpoll analyzer resolves calls to its Scatter method.
type BulkWriter interface {
	Scatter(coords []Vector, attr int, vals Vector) error
}
