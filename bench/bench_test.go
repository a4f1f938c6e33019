package main

import (
	"context"
	"maps"
	"slices"
	"testing"
)

// smokeOps is the measured op count of the 1/64-scale smoke runs.
var smokeOps = map[string]int{"scan_analytics": 2, "structural_join": 2, "wire_mixed": 20, "write_mixed": 3}

func smokeConfig(t *testing.T, sp spec, seed int64) config {
	cfg := newConfig(sp, seed, defaultSeconds)
	cfg.p.shrink = 8
	cfg.setups, cfg.rounds, cfg.warmOps = 1, 1, 1
	cfg.roundOps = smokeOps[sp.name]
	cfg.spec.tracedOps = smokeOps[sp.name]
	cfg.outDir = t.TempDir()
	return cfg
}

func metricNames(ms []manifestMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload at 1/64 scale: the oracle must accept
// every op under two seeds, the emitted names must be BENCHMARK.json's,
// and the count metrics must repeat exactly.
func TestSmoke(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", have, names)
	}
	ctx := context.Background()
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				res, err := runEndToEnd(ctx, smokeConfig(t, sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 1+smokeOps[sp.name] {
					t.Fatalf("seed %d: %d of %d ops failed", seed, res.Failed, res.Attempted)
				}
				if got, want := slices.Sorted(maps.Keys(res.Metrics)), metricNames(man.EndToEnd); !slices.Equal(got, want) {
					t.Fatalf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
				}
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("seed %d: %s = %v", seed, name, m.Value)
					}
				}
			}
			var runs [2]result
			for i := range runs {
				if runs[i], err = runTraced(ctx, smokeConfig(t, sp, 1)); err != nil {
					t.Fatal(err)
				}
				if runs[i].Failed != 0 {
					t.Fatalf("traced run: %d of %d ops failed", runs[i].Failed, runs[i].Attempted)
				}
			}
			if got, want := slices.Sorted(maps.Keys(runs[0].Metrics)), metricNames(man.PerLayer); !slices.Equal(got, want) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for _, name := range []string{"exec.cells_per_row", "exec.chunks_skipped_ratio", "sciql.stmt_cache_hit_ratio", "client.samples"} {
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v and %v", name, a, b)
				}
			}
		})
	}
}

// TestSeedsDiffer guards against an oracle that ignores its seed.
func TestSeedsDiffer(t *testing.T) {
	p := params{seed: 1, shrink: 8, workers: 1}
	a := newScan(p)
	p.seed = 2
	b := newScan(p)
	for i := range a.stmts {
		if a.stmts[i].want == b.stmts[i].want {
			t.Errorf("%s: seeds 1 and 2 expect the same result", a.stmts[i].class)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		// Two connections' ops overlap on [30, 50]: the round is covered
		// on [10, 80] once, not 40 + 50.
		{Name: "op", Start: 10, End: 50, Parent: 0},
		{Name: "op", Start: 30, End: 80, Parent: 0},
		// Children of the first op: a gap at [20, 25], and one child
		// that runs past its parent and is clipped to it.
		{Name: "send", Start: 10, End: 20, Parent: 1},
		{Name: "drain", Start: 25, End: 60, Parent: 1},
		// A child inside a sibling's interval adds no coverage.
		{Name: "send", Start: 40, End: 45, Parent: 0},
	}
	got := make(map[string]selfStat)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]selfStat{
		"round": {Name: "round", Count: 1, Total: 100, Self: 30},
		"op":    {Name: "op", Count: 2, Total: 90, Self: 5 + 50},
		"send":  {Name: "send", Count: 2, Total: 15, Self: 15},
		"drain": {Name: "drain", Count: 1, Total: 35, Self: 35},
	}
	if !maps.Equal(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
}

// TestSpread pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpread(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := spread(xs); got != (8.25-2.75)/5.5 {
		t.Fatalf("spread = %v, want 1", got)
	}
}
