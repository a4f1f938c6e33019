package exec

import "governor"

// The DML batch step: a dataset visitor runs once per scan batch, so
// charging what a scatter copied there is the sanctioned granularity;
// a loop over the batch's rows inside it is per-cell like any other.

type Dataset struct{ rows int }

func eachBatch(visit func(cur *Dataset) error) error { return visit(&Dataset{}) }

func chargePerScatter(m *metrics, b *governor.Budget, copied int64) error {
	return eachBatch(func(cur *Dataset) error {
		m.cells.Add(int64(cur.rows))
		return b.Charge(copied + 8*int64(cur.rows))
	})
}

func chargePerRowFlagged(m *metrics, b *governor.Budget) error {
	return eachBatch(func(cur *Dataset) error {
		for row := 0; row < cur.rows; row++ {
			m.cells.Inc()   // want `telemetry Counter\.Inc\(\) inside a per-cell loop`
			_ = b.Charge(8) // want `governor Budget\.Charge\(\) inside a per-cell loop`
		}
		return nil
	})
}
