package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/plan"
	"repro/internal/server/pgwire"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/sciql"
)

// The probes time calls into one module's public functions from outside
// it. They are the only part of the harness that imports packages below
// sciql; everything a workload does goes through SQL.

// probeReps is how often the cheap probes repeat their input.
const probeReps = 20

// lookup unwraps a catalog array to the internal type the storage
// probes need.
func lookup(db *sciql.DB, name string) (*array.Array, bool) {
	a, ok := db.LookupArray(name)
	if !ok {
		return nil, false
	}
	arr, ok := a.Wrap().A.(*array.Array)
	return arr, ok
}

// dbCatalog answers the planner's schema questions from the live
// database, without the executor's catalog types.
type dbCatalog struct{ db *sciql.DB }

func (c dbCatalog) ArrayInfo(name string) (dims, attrs []string, ok bool) {
	arr, ok := lookup(c.db, name)
	if !ok {
		return nil, nil, false
	}
	for _, d := range arr.Schema.Dims {
		dims = append(dims, d.Name)
	}
	for _, a := range arr.Schema.Attrs {
		attrs = append(attrs, a.Name)
	}
	return dims, attrs, true
}

func (dbCatalog) IsTable(string) bool { return false }

// probeParsePlan times parser.Parse on every distinct text of the mix and
// plan.PlanSelect on every SELECT among them; microseconds per statement.
func probeParsePlan(db *sciql.DB, texts []string) (parseUS, planUS float64, err error) {
	var sels []*ast.Select
	t0 := time.Now()
	for r := 0; r < probeReps; r++ {
		for _, q := range texts {
			stmts, err := parser.Parse(q)
			if err != nil {
				return 0, 0, fmt.Errorf("parse probe: %w\nSQL: %s", err, q)
			}
			if sel, ok := stmts[0].(*ast.Select); ok && r == 0 {
				sels = append(sels, sel)
			}
		}
	}
	parseUS = micros(time.Since(t0)) / float64(probeReps*len(texts))
	cat := dbCatalog{db}
	t0 = time.Now()
	for r := 0; r < probeReps; r++ {
		for _, sel := range sels {
			if plan.PlanSelect(sel, cat).Root == nil {
				return 0, 0, fmt.Errorf("plan probe: no plan for %s", ast.FormatSelect(sel))
			}
		}
	}
	planUS = micros(time.Since(t0)) / float64(probeReps*len(sels))
	return parseUS, planUS, nil
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// storageProbe holds what probeStorage measured.
type storageProbe struct {
	scanNS, chunkScanNS, getNS, setNS, zoneBuildMS float64
}

// probeStorage times the storage layer under sky: a full Scan and the
// same cells through ScanChunks with a visitor that only counts, then
// Get, Set and the zone-map rebuild after a Set on a scratch store of
// the same schema.
func probeStorage(db *sciql.DB, r *rng) (storageProbe, error) {
	var p storageProbe
	arr, ok := lookup(db, "sky")
	if !ok {
		return p, fmt.Errorf("storage probe: no sky array")
	}
	var n int
	count := func([]int64, []value.Value) bool { n++; return true }
	t0 := time.Now()
	arr.Store.Scan(count)
	p.scanNS = float64(time.Since(t0)) / float64(n)
	cs, ok := arr.Store.(array.ChunkedScanner)
	if !ok {
		return p, fmt.Errorf("storage probe: %s store has no ScanChunks", arr.Store.Scheme())
	}
	n = 0
	t0 = time.Now()
	for _, chunk := range cs.ScanChunks(32, nil) {
		chunk(count)
	}
	p.chunkScanNS = float64(time.Since(t0)) / float64(n)

	scratch, err := storage.New(arr.Schema, storage.Hints{})
	if err != nil {
		return p, err
	}
	side := arr.Schema.Dims[0].Size()
	probes := int(side * side / 8)
	coords := make([][]int64, probes)
	for i := range coords {
		coords[i] = []int64{r.in(0, side-1), r.in(0, side-1)}
	}
	t0 = time.Now()
	for i, c := range coords {
		if err := scratch.Set(c, 0, value.NewFloat(float64(i))); err != nil {
			return p, err
		}
	}
	p.setNS = float64(time.Since(t0)) / float64(probes)
	var live int
	t0 = time.Now()
	for _, c := range coords {
		if !scratch.Get(c, 0).Null {
			live++
		}
	}
	p.getNS = float64(time.Since(t0)) / float64(probes)
	if live != probes {
		return p, fmt.Errorf("storage probe: %d of %d written cells read back", live, probes)
	}
	sp, ok := scratch.(array.StatsProvider)
	if !ok {
		return p, fmt.Errorf("storage probe: %s store keeps no zone maps", scratch.Scheme())
	}
	t0 = time.Now()
	sp.ChunkStats(32)
	p.zoneBuildMS = float64(time.Since(t0)) / 1e6
	return p, nil
}

// probeKernels evaluates scan_analytics' filter shape,
// MOD(x*k+y+r, 20) < 7 AND MOD(x+y*k+r, 7) <> 0, hand-composed from bat
// kernels over n-element vectors; nanoseconds per element. It is the
// floor under the filter query: what the expression costs once the
// columns are vectors.
func probeKernels(side int64) float64 {
	n := int(side * side)
	xs, ys := make([]int64, n), make([]int64, n)
	for i := range xs {
		xs[i], ys[i] = int64(i)/side, int64(i)%side
	}
	x, y := bat.NewIntVector(xs), bat.NewIntVector(ys)
	t0 := time.Now()
	l := bat.CmpInt64C("<", bat.ModInt64C(bat.AddInt64C(bat.AddInt64(bat.MulInt64C(x, 31), y), 5), 20), 7)
	r := bat.CmpInt64C("<>", bat.ModInt64C(bat.AddInt64C(bat.AddInt64(x, bat.MulInt64C(y, 17)), 3), 7), 0)
	sel := bat.TruthSel(bat.AndBool(l, r))
	d := time.Since(t0)
	if len(sel) == 0 {
		panic("bench: kernel probe selected nothing")
	}
	return float64(d) / float64(n)
}

// probeCodec times the pgwire codec alone: WriteDataRow into io.Discard
// and ReadMessage over prebuilt frames.
func probeCodec() (encodeNS, decodeNS float64, err error) {
	const n = 200000
	row := [][]byte{[]byte("1023"), []byte("517"), []byte("1047893"), []byte("13")}
	w := pgwire.NewWriter(io.Discard)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := w.WriteDataRow(row); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	encodeNS = float64(time.Since(t0)) / n

	var buf bytes.Buffer
	w = pgwire.NewWriter(&buf)
	for i := 0; i < n; i++ {
		if err := w.WriteDataRow(row); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	rd := pgwire.NewReader(bytes.NewReader(buf.Bytes()), 0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := rd.ReadMessage(); err != nil {
			return 0, 0, err
		}
	}
	decodeNS = float64(time.Since(t0)) / n
	return encodeNS, decodeNS, nil
}

// compare measures a read-only workload's op latency under two settings
// of a knob. The settings alternate op by op, so drift in the machine's
// speed falls on both alike; b is left in force. It returns the median
// latency under each, in ms.
func compare(ctx context.Context, cfg config, inst instance, k int, a, b func()) (aMS, bMS float64, err error) {
	var lat [2][]float64
	for i := 0; i < k; i++ {
		for side, set := range []func(){a, b} {
			set()
			r := runOps(ctx, cfg, inst, 0, 1, nil, -1)
			if r.failed > 0 {
				return 0, 0, fmt.Errorf("an op failed in a knob comparison")
			}
			lat[side] = append(lat[side], r.lat[0])
		}
	}
	return median(lat[0]), median(lat[1]), nil
}
