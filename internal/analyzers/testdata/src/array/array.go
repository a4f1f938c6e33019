// Package array is a fixture stand-in for the engine's array package:
// the analyzers recognize the column-batch visitor signature by the
// parameter type's package path suffix ("array") and type name.
package array

type ColumnBatch []int

type ColumnChunk func(max int, visit func(b ColumnBatch) bool)
