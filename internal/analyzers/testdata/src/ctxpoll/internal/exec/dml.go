package exec

import "array"

// The DML shapes: a statement's walk calls a dataset visitor once per
// scan batch (the driver polls), and bulk writes belong inside it.

type Dataset struct{ Vecs []array.Vector }

type stopped struct{}

func (stopped) Error() string { return "canceled" }

type dmlScan struct{ out array.BulkWriter }

func (d *dmlScan) each(visit func(cur *Dataset) error) error { return visit(&Dataset{}) }

// scatter is the one place that calls Scatter, outside any loop. Clean.
func (d *dmlScan) scatter(coords []array.Vector, ai int, vals array.Vector) error {
	return d.out.Scatter(coords, ai, vals)
}

// Scattering every SET clause of one batch inside the visitor: the
// scan that feeds the visitor polls once per batch. Clean.
func updatePerBatch(d *dmlScan, attrs []int) error {
	return d.each(func(cur *Dataset) error {
		for _, ai := range attrs {
			if err := d.scatter(cur.Vecs[:1], ai, cur.Vecs[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Flagging case: the cells a DELETE collected are reset after its scan
// is over, block by block, and nothing polls between blocks.
func resetNoPoll(d *dmlScan, blocks [][]array.Vector, attrs []int) error {
	for _, b := range blocks { // want `bulk-write loop outside a scan visitor without a cancellation poll`
		for _, ai := range attrs {
			if err := d.scatter(b[:1], ai, b[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// The same loop through the store face directly.
func resetDirectNoPoll(out array.BulkWriter, blocks [][]array.Vector) {
	for _, b := range blocks { // want `bulk-write loop outside a scan visitor without a cancellation poll`
		_ = out.Scatter(b[:1], 0, b[1])
	}
}

// One poll per block; the attribute loop inside rides on it. Clean.
func resetPolls(e *Engine, d *dmlScan, blocks [][]array.Vector, attrs []int) error {
	for _, b := range blocks {
		if e.canceled() {
			return stopped{}
		}
		for _, ai := range attrs {
			if err := d.scatter(b[:1], ai, b[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// A loop of statements, each a walk of its own: the scatter sits in the
// visitor, not in the loop. Clean.
func statementsEachWalk(ds []*dmlScan) error {
	for _, d := range ds {
		err := d.each(func(cur *Dataset) error { return d.scatter(cur.Vecs[:1], 0, cur.Vecs[1]) })
		if err != nil {
			return err
		}
	}
	return nil
}

func resetSuppressed(d *dmlScan, blocks [][]array.Vector) {
	//lint:allow ctxpoll positional SET lists name a handful of cells
	for _, b := range blocks {
		_ = d.scatter(b[:1], 0, b[1])
	}
}
