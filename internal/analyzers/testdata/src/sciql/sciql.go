// Package sciql stubs the public cursor for the server fixtures: the
// analyzers key on the Rows named type in a package suffixed sciql.
package sciql

// Batch stands in for the column batch a cursor hands out.
type Batch struct{}

func (b *Batch) Len() int { return 0 }

type Rows struct{}

func (r *Rows) Next() bool                       { return false }
func (r *Rows) Batch(max int) (*Batch, int, int) { return nil, 0, 0 }
func (r *Rows) Values() []int                    { return nil }
func (r *Rows) Err() error                       { return nil }
