package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/sciql"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; one that does not apply to the workload reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"sql.parse_us_per_stmt", "us"},
	{"plan.plan_us_per_stmt", "us"},
	{"sciql.stmt_cache_hit_ratio", "ratio"},
	{"sciql.first_row_ms", "ms"},
	{"sciql.drain_ms", "ms"},
	{"exec.filter_ms", "ms"},
	{"exec.agg_ms", "ms"},
	{"exec.zonemap_ms", "ms"},
	{"exec.groupby_ms", "ms"},
	{"exec.tile_sliding_ms", "ms"},
	{"exec.tile_distinct_ms", "ms"},
	{"exec.join_ms", "ms"},
	{"exec.update_ms", "ms"},
	{"exec.tx_ms", "ms"},
	{"exec.delete_insert_ms", "ms"},
	{"exec.read_after_write_ms", "ms"},
	{"exec.cells_per_row", "ratio"},
	{"exec.chunks_skipped_ratio", "ratio"},
	{"exec.vec_fallback_ratio", "ratio"},
	{"exec.scan_overhead_ratio", "ratio"},
	{"storage.scan_ns_per_cell", "ns"},
	{"storage.chunk_scan_ns_per_cell", "ns"},
	{"storage.get_ns_per_probe", "ns"},
	{"storage.set_ns_per_cell", "ns"},
	{"storage.zonemap_build_ms", "ms"},
	{"bat.kernel_ns_per_elem", "ns"},
	{"catalog.cow_clone_bytes_per_write", "B"},
	{"catalog.commit_us", "us"},
	{"parallel.scan_speedup", "ratio"},
	{"parallel.structural_speedup", "ratio"},
	{"parallel.morsels_per_op", "count"},
	{"governor.armed_overhead_pct", "%"},
	{"telemetry.armed_overhead_pct", "%"},
	{"pgwire.encode_ns_per_row", "ns"},
	{"pgwire.decode_ns_per_msg", "ns"},
	{"server.wire_overhead_us", "us"},
	{"server.rows_per_s", "1/s"},
	{"client.lat_ms_p99", "ms"},
	{"client.samples", "count"},
	{"trace.overhead_pct", "%"},
}

// classMetrics maps a per-layer latency onto the span name whose median
// duration it reports.
var classMetrics = []struct {
	metric, span string
	scale        float64 // nanoseconds per unit
}{
	{"exec.filter_ms", "filter", 1e6},
	{"exec.agg_ms", "agg", 1e6},
	{"exec.zonemap_ms", "zonemap", 1e6},
	{"exec.groupby_ms", "groupby", 1e6},
	{"exec.tile_sliding_ms", "tile_sliding", 1e6},
	{"exec.tile_distinct_ms", "tile_distinct", 1e6},
	{"exec.join_ms", "join", 1e6},
	{"exec.update_ms", "update", 1e6},
	{"exec.tx_ms", "tx", 1e6},
	{"exec.delete_insert_ms", "delete_insert", 1e6},
	{"exec.read_after_write_ms", "read_after_write", 1e6},
	{"catalog.commit_us", "commit", 1e3},
}

// comparisonOps is the op count on each side of a knob comparison.
const comparisonOps = 3

// runTraced is the per-layer run: one set-up, an untraced and a traced
// round of the same op count, then the probes. End-to-end metrics are
// never taken from it.
func runTraced(ctx context.Context, cfg config) (result, error) {
	pin(cfg.p.workers)
	cfg.setups = 1
	inst, _, err := setUp(ctx, cfg, nil)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	db := inst.db()
	n := cfg.spec.tracedOps
	inst.prepare(cfg.warmOps + 2*n)
	failed := runOps(ctx, cfg, inst, 0, cfg.warmOps, nil, -1).failed

	runtime.GC()
	plain := runOps(ctx, cfg, inst, cfg.warmOps, n, nil, -1)
	runtime.GC()
	before := db.Metrics()
	tr := newTracer()
	root := tr.begin("round", -1, -1)
	traced := runOps(ctx, cfg, inst, cfg.warmOps+n, n, tr, root)
	tr.end(root)
	after := db.Metrics()
	failed += plain.failed + traced.failed

	m := make(map[string]float64)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// From the spans of the traced round.
	for _, c := range classMetrics {
		m[c.metric] = median(tr.durations(c.span)) / c.scale
	}
	first, rest := make([]float64, n), make([]float64, n)
	var fetchNS float64
	var fetches int
	for _, s := range tr.spans {
		switch s.Name {
		case "send", "first_row":
			first[s.Op-cfg.warmOps-n] += float64(s.End-s.Start) / 1e6
		case "drain", "close":
			rest[s.Op-cfg.warmOps-n] += float64(s.End-s.Start) / 1e6
		case "fetch":
			fetchNS += float64(s.End - s.Start)
			fetches++
		}
	}
	m["sciql.first_row_ms"], m["sciql.drain_ms"] = median(first), median(rest)
	m["server.rows_per_s"] = ratio(float64(fetches*tileSide*tileSide), fetchNS/1e9)
	m["client.lat_ms_p99"] = quantile(traced.lat, 0.99)
	m["client.samples"] = float64(len(traced.lat))
	m["trace.overhead_pct"] = (traced.wall.Seconds()/plain.wall.Seconds() - 1) * 100

	// From the engine's own counters over the traced round.
	hits, misses := delta("stmt_cache_hit_total"), delta("stmt_cache_miss_total")
	m["sciql.stmt_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["exec.cells_per_row"] = ratio(delta("scan_cells_total"), delta("scan_rows_total"))
	skipped := delta("scan_chunks_skipped_total")
	m["exec.chunks_skipped_ratio"] = ratio(skipped, skipped+delta("scan_chunks_total"))
	fallback := delta("vec_fallback_total")
	m["exec.vec_fallback_ratio"] = ratio(fallback, fallback+delta("vec_kernel_total"))
	writes := delta("stmt_update_total") + delta("stmt_insert_total") + delta("stmt_delete_total")
	m["catalog.cow_clone_bytes_per_write"] = ratio(delta("catalog_cow_clone_bytes_total"), writes)
	m["parallel.morsels_per_op"] = delta("pool_morsels_total") / float64(n)

	// Probes of single modules, the same for every workload.
	if m["sql.parse_us_per_stmt"], m["plan.plan_us_per_stmt"], err = probeParsePlan(db, inst.texts()); err != nil {
		return result{}, err
	}
	sp, err := probeStorage(db, &rng{s: uint64(cfg.p.seed)})
	if err != nil {
		return result{}, err
	}
	m["storage.scan_ns_per_cell"], m["storage.chunk_scan_ns_per_cell"] = sp.scanNS, sp.chunkScanNS
	m["storage.get_ns_per_probe"], m["storage.set_ns_per_cell"] = sp.getNS, sp.setNS
	m["storage.zonemap_build_ms"] = sp.zoneBuildMS
	m["bat.kernel_ns_per_elem"] = probeKernels(skySide / cfg.p.shrink)
	if m["pgwire.encode_ns_per_row"], m["pgwire.decode_ns_per_msg"], err = probeCodec(); err != nil {
		return result{}, err
	}

	// Comparisons that belong to one workload.
	if err := compareKnobs(ctx, cfg, inst, m); err != nil {
		return result{}, err
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.spec.name+".jsonl")
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("%s: %d spans in %s; self time by span name:\n", cfg.spec.name, len(tr.spans), path)
	for _, st := range selfTimes(tr.spans) {
		fmt.Printf("  %-20s n=%-7d total=%10.3f ms  self=%10.3f ms\n", st.Name, st.Count, float64(st.Total)/1e6, float64(st.Self)/1e6)
	}

	res := result{Correct: failed == 0, Attempted: cfg.warmOps + 2*n, Failed: failed, Metrics: make(map[string]metric)}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return res, nil
}

// compareKnobs runs the comparisons that need the workload's own op:
// serial against parallel execution on the two read-only in-process
// workloads, governor and trace hook armed against idle on
// scan_analytics, and the wire against the in-process call on wire_mixed.
func compareKnobs(ctx context.Context, cfg config, inst instance, m map[string]float64) error {
	db := inst.db()
	if cfg.spec.speedup != "" {
		serial, parallel, err := compare(ctx, cfg, inst, comparisonOps,
			func() { db.Parallelism(1) }, func() { db.Parallelism(cfg.p.workers) })
		if err != nil {
			return err
		}
		m[cfg.spec.speedup] = serial / parallel
	}
	if cfg.spec.scanProbes {
		perCell := m["exec.filter_ms"] * 1e6 / float64(inst.cells())
		m["exec.scan_overhead_ratio"] = perCell / (m["storage.scan_ns_per_cell"] + m["bat.kernel_ns_per_elem"])

		// Limits far above anything the workload needs: the governor
		// accounts and admits, and never refuses.
		idle, armed, err := compare(ctx, cfg, inst, comparisonOps,
			func() { db.SetMemoryLimit(0, 0); db.SetMaxConcurrentQueries(0) },
			func() { db.SetMemoryLimit(1<<40, 1<<40); db.SetMaxConcurrentQueries(64) })
		if err != nil {
			return err
		}
		db.SetMemoryLimit(0, 0)
		db.SetMaxConcurrentQueries(0)
		m["governor.armed_overhead_pct"] = (armed/idle - 1) * 100

		var events int
		idle, armed, err = compare(ctx, cfg, inst, comparisonOps,
			func() { db.SetTraceHook(nil) },
			func() { db.SetTraceHook(func(sciql.TraceEvent) { events++ }) })
		if err != nil {
			return err
		}
		db.SetTraceHook(nil)
		if events == 0 {
			return fmt.Errorf("telemetry probe: the trace hook never fired")
		}
		m["telemetry.armed_overhead_pct"] = (armed/idle - 1) * 100
	}
	if w, ok := inst.(*wireWorkload); ok {
		us, err := w.wireOverhead(ctx)
		if err != nil {
			return err
		}
		m["server.wire_overhead_us"] = us
	}
	return nil
}
