package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/telemetry"
)

// This file is the one cell source of every single-array SELECT scan:
// the store's columnar chunks (array.ColumnScanner), walked as batches
// of typed vectors. The streaming cursors, the materializing scan and
// chunk-wise aggregation all pull from scanChunk; what differs between
// them is only what they do with a batch. Serial execution is the same
// loop on the calling goroutine — a pool of one.

// scanSource is a resolved scan of one array: which cells to walk and
// the column layout they arrive in.
type scanSource struct {
	arr *array.Array
	// cols describes a batch: the dimension columns, then the attribute
	// columns selected by attrs (the optimizer's pruned scan projection;
	// nil keeps every attribute, an empty slice none).
	cols  []Col
	attrs []int
	// eff is the effective per-dimension restriction (FROM slicing ∩
	// pushed-down predicates); the store turns it into position ranges.
	eff []dimSel
	// skip holds the compiled zone-map skip conditions; nil when chunk
	// skipping is off or nothing in the statement can prune a chunk.
	skip *chunkSkipper
	// covered makes the scan range over what DML ranges over — every
	// covered cell of a bounded array, holes included as all-NULL rows
	// (array.BulkWriter) — with every attribute and no chunk skipping:
	// a zone map describes live cells only.
	covered bool
	// prof and budget are the arming EXPLAIN ANALYZE's collector and the
	// statement's memory account, copied from the session when the scan
	// is resolved so pool workers never read session state; either may
	// be nil.
	prof   *telemetry.Profile
	budget *governor.Budget
}

const (
	// minParallelScanCells gates chunking: a store with fewer live cells
	// is one chunk, walked on the calling goroutine.
	minParallelScanCells = 4096
	// minChunkCells and maxScanChunks bound the chunk size from below
	// and the chunk count from above: chunks stay worth a worker's (and
	// a zone map's) while, and there are enough of them to balance skew
	// and to skip selectively.
	minChunkCells = 1024
	maxScanChunks = 32
)

// scanChunkTarget is how many chunks a scan of st asks for. It depends
// on the store alone, never on the parallelism: per-chunk partial
// aggregates then merge to the same bits at any worker count, and
// every query of one store version shares one set of zone maps.
func scanChunkTarget(st array.Store) int {
	n := st.Len()
	if n < minParallelScanCells {
		return 1
	}
	return min(n/minChunkCells, maxScanChunks)
}

// dimRanges lowers the effective restriction to the store's terms; nil
// when no dimension is restricted.
func dimRanges(eff []dimSel) []array.DimRange {
	var out []array.DimRange
	for i, s := range eff {
		if s.full {
			continue
		}
		if out == nil {
			out = make([]array.DimRange, len(eff))
			for j := range out {
				out[j].Full = true
			}
		}
		switch {
		case s.point:
			out[i] = array.DimRange{Lo: s.val, Hi: s.val + 1, Step: 1}
		case s.sparse: // order-only dimension: any coordinate in range
			out[i] = array.DimRange{Lo: s.lo, Hi: s.hi, Step: 1}
		default:
			out[i] = array.DimRange{Lo: s.lo, Hi: s.hi, Step: selStep(s)}
		}
	}
	return out
}

// scanChunks lists the column chunks the scan has to walk, in scan
// order, after zone-map skipping. A provably empty restriction (a
// disjoint slice ∩ predicate) walks nothing.
func (e *Engine) scanChunks(src *scanSource) ([]array.ColumnChunk, error) {
	if effProvablyEmpty(src.eff) {
		return nil, nil
	}
	st := src.arr.Store
	target := scanChunkTarget(st)
	if bw, ok := st.(array.BulkWriter); ok && src.covered {
		return bw.CoveredChunks(target, dimRanges(src.eff)), nil
	}
	cs, ok := st.(array.ColumnScanner)
	if !ok || src.covered {
		return nil, fmt.Errorf("array %s: %s storage offers no columnar scan", src.arr.Name, st.Scheme())
	}
	chunks := cs.ColumnChunks(target, src.attrs, dimRanges(src.eff))
	if len(chunks) >= 2 {
		chunks = e.skipChunks(src.skip, st, chunks, target, src.prof)
	}
	return chunks, nil
}

// scanChunk walks one chunk as batches of at most vecBatchRows cells,
// handing each to visit as a dataset over src.cols whose vectors may
// be views of the store (read-only); visit returning false ends the
// walk. The chunk fault point fires once, the context is polled once
// per batch, and the chunk's counts publish once at the end; under an
// armed profile the time spent inside visit is not the scan's.
func (e *Engine) scanChunk(ctx context.Context, src *scanSource, chunk array.ColumnChunk, visit func(in *Dataset) bool) error {
	if err := faultinject.Hit("scan.chunk"); err != nil {
		return err
	}
	var ctxErr error
	var cells int64
	var visiting time.Duration
	start := time.Now()
	chunk(vecBatchRows, func(b array.ColumnBatch) bool {
		if ctxErr = ctx.Err(); ctxErr != nil {
			return false
		}
		cells += int64(b.Rows())
		t0 := time.Now()
		more := visit(&Dataset{Cols: src.cols, Vecs: b})
		visiting += time.Since(t0)
		return more
	})
	m := e.metrics()
	m.scanChunks.Inc()
	m.scanCells.Add(cells)
	if p := src.prof; p != nil {
		p.Scan.Chunks.Add(1)
		p.Scan.Cells.Add(cells)
		p.Scan.RowsOut.Add(cells)
		p.Scan.AddNanos(time.Since(start) - visiting)
		p.Scan.VecBatches.Add(1)
	}
	return ctxErr
}

// forEachChunk runs fn over the chunk ordinals [0, n): in order on the
// calling goroutine when the statement is serial (or there is nothing
// to share out), across the morsel pool otherwise.
func (e *Engine) forEachChunk(ctx context.Context, par, n int, fn func(ci int) error) error {
	if par <= 1 || e.pool == nil || n < 2 {
		for ci := 0; ci < n; ci++ {
			if err := fn(ci); err != nil {
				return err
			}
		}
		return nil
	}
	return e.pool.ForEachCtx(ctx, n, 1, func(m parallelMorsel) error {
		for ci := m.Lo; ci < m.Hi; ci++ {
			if err := fn(ci); err != nil {
				return err
			}
		}
		return nil
	})
}

// materializeScan concatenates the scan's batches into one dataset.
// The chunks only collect their batches — views of the store, valid for
// as long as the statement's store version is — and the one copy (a
// result never aliases the store) lays them out in chunk order, which
// the store guarantees equals serial scan order: the result is
// byte-identical at any parallelism.
func (e *Engine) materializeScan(src *scanSource, par int) (*Dataset, error) {
	chunks, err := e.scanChunks(src)
	if err != nil {
		return nil, err
	}
	parts := make([][]*Dataset, len(chunks))
	ctx := e.ctx()
	err = e.forEachChunk(ctx, par, len(chunks), func(ci int) error {
		var bytes int64
		err := e.scanChunk(ctx, src, chunks[ci], func(in *Dataset) bool {
			parts[ci] = append(parts[ci], in)
			bytes += approxDatasetBytes(in)
			return true
		})
		if err != nil {
			return err
		}
		return chargeBudget(src.budget, bytes)
	})
	if err != nil {
		return nil, err
	}
	out := NewDataset(src.cols)
	rows := 0
	for _, part := range parts {
		for _, in := range part {
			rows += in.NumRows()
		}
	}
	for c := range out.Vecs {
		out.Vecs[c] = bat.Grow(out.Vecs[c], rows)
	}
	for _, part := range parts {
		for _, in := range part {
			out.concat(in)
		}
	}
	return out, nil
}
