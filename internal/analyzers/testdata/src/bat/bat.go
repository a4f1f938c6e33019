// Package bat stubs the typed row-key table for analyzer fixtures.
package bat

type RowKeys struct{}

func (k *RowKeys) Len() int        { return 0 }
func (k *RowKeys) Fill(lo, hi int) {}

type KeyTable struct{}

func (t *KeyTable) Build(part, lo, hi int) {}
