// Package repro_test is the benchmark harness that regenerates every
// figure and functional experiment of "SciQL, A Query Language for
// Science Applications" (EDBT 2011). One benchmark per artifact; the
// experiment IDs (F1–F3, A1–A6, B1–B2, C1–C4, X1–X3, plus ablations)
// follow DESIGN.md's experiment index, and cmd/sciqlbench prints the
// same measurements as paper-style tables. EXPERIMENTS.md records the
// observed shapes against the paper's claims.
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/server/pgwire"
	"repro/internal/storage"
	"repro/sciql"
)

// --- F1: Figure 1 — alternative array storage schemes ----------------------

// BenchmarkFig1StorageSchemes measures scan, random point access and
// slab access under each of the four physical representations at
// three densities. Expected shape: dense (virtual/dorder) wins on
// dense data; tabular catches up as density drops (its cost tracks
// live cells, not the box volume).
func BenchmarkFig1StorageSchemes(b *testing.B) {
	const n = 256
	for _, density := range []float64{1.0, 0.1, 0.01} {
		for _, scheme := range []string{
			storage.SchemeVirtual, storage.SchemeTabular,
			storage.SchemeDOrder, storage.SchemeSlab,
		} {
			a, err := experiments.MakeGrid(scheme, n, density, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("scan/%s/density=%v", scheme, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = experiments.ScanSum(a)
				}
			})
			b.Run(fmt.Sprintf("point/%s/density=%v", scheme, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = experiments.PointProbes(a, 4096, 2)
				}
			})
			b.Run(fmt.Sprintf("slice/%s/density=%v", scheme, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = experiments.SliceSum(a)
				}
			})
		}
	}
}

// --- Ablation: slab-size sweep ----------------------------------------------

// BenchmarkSlabSize sweeps the slab edge length (the SciDB-style
// chunking parameter of §2.2). Expected shape: tiny slabs pay map
// overhead; large slabs converge to the dense scan.
func BenchmarkSlabSize(b *testing.B) {
	const n = 256
	for _, size := range []int64{8, 16, 64, 256} {
		a, err := experiments.MakeGridSlab(n, size, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("scan/slab=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = experiments.ScanSum(a)
			}
		})
		b.Run(fmt.Sprintf("point/slab=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = experiments.PointProbes(a, 4096, 2)
			}
		})
	}
}

// --- F2: Figure 2 — array forms ---------------------------------------------

// BenchmarkFig2ArrayForms scans + aggregates the four declared forms.
// Expected shape: stripes/diagonal cost tracks their (much smaller)
// live-cell count, not the bounding box.
func BenchmarkFig2ArrayForms(b *testing.B) {
	const n = 128
	for _, form := range []string{"matrix", "stripes", "diagonal", "sparse"} {
		s, err := experiments.MakeForm(form, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(form, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.FormAggregate(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F3: Figure 3 — array tiling --------------------------------------------

// BenchmarkFig3Tiling sweeps tile sizes for overlapping and DISTINCT
// tiling. Expected shape: overlapping cost grows with tile area;
// DISTINCT divides the group count (and cost) by the tile area.
func BenchmarkFig3Tiling(b *testing.B) {
	const n = 64
	s, err := experiments.NewMatrixSession(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []int64{2, 4, 8} {
		b.Run(fmt.Sprintf("overlapping/t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Tiling(s, t, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("distinct/t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Tiling(s, t, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1–A5: the AML suite (§7.1) --------------------------------------------

func newAML(b *testing.B, n int) *experiments.AML {
	b.Helper()
	a, err := experiments.NewAML(n)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAMLDestripe is A1: the every-sixth-line channel-6
// correction through the black-box noise() function.
func BenchmarkAMLDestripe(b *testing.B) {
	a := newAML(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Destripe(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMLTVI is A2: per-pixel 3×3 convolution on two bands
// composed through white-box functions.
func BenchmarkAMLTVI(b *testing.B) {
	a := newAML(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.TVI(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMLNDVI is A3: radiance conversion + normalized difference
// over the full image.
func BenchmarkAMLNDVI(b *testing.B) {
	a := newAML(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.NDVI(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMLMask is A4: 3×3 tile averages with a HAVING filter.
func BenchmarkAMLMask(b *testing.B) {
	a := newAML(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Mask(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMLWavelet is A5: image reconstruction via correlated
// array-slicing subqueries.
func BenchmarkAMLWavelet(b *testing.B) {
	a := newAML(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Wavelet(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMLMatVec is A6: matrix–vector multiplication via row
// tiling.
func BenchmarkAMLMatVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MatVec(128); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B1/B2: astronomy (§7.2) -------------------------------------------------

// BenchmarkAstroBinning is B1: 100k photon events into a 2-D
// histogram via value grouping + array coercion.
func BenchmarkAstroBinning(b *testing.B) {
	a, err := experiments.NewAstro(100000, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, err := a.Binning(i)
		if err != nil {
			b.Fatal(err)
		}
		if total != 100000 {
			b.Fatalf("binned %d events, want 100000", total)
		}
	}
}

// BenchmarkAstroRebin is the 16× re-binning of B1 via DISTINCT tiling.
func BenchmarkAstroRebin(b *testing.B) {
	a, err := experiments.NewAstro(100000, 256)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.PrepareImage(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Rebin(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAstroWCS is B2: the linear pixel→world transform over
// every cell of the image.
func BenchmarkAstroWCS(b *testing.B) {
	s, err := experiments.NewWCSSession(128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.WCS(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C1–C4: seismology (§7.3) --------------------------------------------------

func newSeis(b *testing.B, n int) *experiments.Seis {
	b.Helper()
	s, err := experiments.NewSeis(n, 20, 30)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSeisRetrieve is C1: time-window slicing over the series.
func BenchmarkSeisRetrieve(b *testing.B) {
	s := newSeis(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Retrieve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeisGaps is C2: next()-based gap detection.
func BenchmarkSeisGaps(b *testing.B) {
	s := newSeis(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Gaps()
		if err != nil {
			b.Fatal(err)
		}
		if got != len(s.W.GapStarts) {
			b.Fatalf("found %d gaps, generator injected %d", got, len(s.W.GapStarts))
		}
	}
}

// BenchmarkSeisSpikes is C3: threshold spike detection.
func BenchmarkSeisSpikes(b *testing.B) {
	s := newSeis(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Spikes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeisMovAvg is C4: the trailing moving average via tiling
// over the sparse time dimension.
func BenchmarkSeisMovAvg(b *testing.B) {
	s := newSeis(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MovAvg(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- X1: structural grouping vs relational self-joins ------------------------

// BenchmarkBaselineConvolution compares the SciQL tiling formulation
// of a 4-neighbor convolution against the equivalent pure-relational
// self-join formulation. Expected shape: tiling wins by a clear
// factor — the paper's core impedance-mismatch argument.
func BenchmarkBaselineConvolution(b *testing.B) {
	const n = 48
	s, err := experiments.NewMatrixSession(n)
	if err != nil {
		b.Fatal(err)
	}
	if err := experiments.ConvRelationalSetup(s); err != nil {
		b.Fatal(err)
	}
	b.Run("sciql-tiling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := experiments.ConvTiling(s)
			if err != nil {
				b.Fatal(err)
			}
			if got != n*n {
				b.Fatalf("tiling produced %d anchors, want %d", got, n*n)
			}
		}
	})
	b.Run("relational-selfjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.ConvRelational(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- P1/P2: morsel-driven parallel execution ----------------------------------

// newParBenchDB builds the n×n matrix the parallel benches query.
func newParBenchDB(b *testing.B, n int) *sciql.DB {
	b.Helper()
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY pmatrix (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(`UPDATE pmatrix SET v = x * 31 + y`)
	return db
}

// BenchmarkParallelTiling is P1: §4.4 tiled aggregation executed
// serially and morsel-parallel — DISTINCT tiles over a bare attribute,
// and sliding tiles over an expression argument (a derived window
// column). Anchors are the morsels; every anchor folds its tile cells
// into a state of its own, so nothing merges at the end. Expected shape
// on a multi-core host: near-linear scaling (>= 1.8x at 4 workers);
// identical result datasets at every width.
func BenchmarkParallelTiling(b *testing.B) {
	const n = 96
	db := newParBenchDB(b, n)
	for _, tc := range []struct{ name, q string }{
		{"distinct", `SELECT [x], [y], AVG(v) FROM pmatrix GROUP BY DISTINCT pmatrix[x:x+4][y:y+4]`},
		{"sliding", `SELECT [x], [y], SUM(v * 2 - x), COUNT(*) FROM pmatrix GROUP BY pmatrix[x-1:x+2][y-1:y+2]`},
	} {
		db.Parallelism(1)
		want := db.MustQuery(tc.q).String()
		for _, par := range []int{1, 2, 4} {
			db.Parallelism(par)
			if got := db.MustQuery(tc.q).String(); got != want {
				b.Fatalf("%s: parallelism %d changed the result", tc.name, par)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.MustQuery(tc.q)
				}
			})
		}
	}
}

// BenchmarkParallelFilterAgg is P2: scan → filter → grouped aggregate
// over row morsels with per-worker hash tables.
func BenchmarkParallelFilterAgg(b *testing.B) {
	const n = 256
	db := newParBenchDB(b, n)
	const q = `SELECT MOD(x, 7) AS k, AVG(v), COUNT(*) FROM pmatrix WHERE MOD(x + y, 3) < 2 GROUP BY MOD(x, 7) ORDER BY k`
	want := db.MustQuery(q).String()
	for _, par := range []int{1, 2, 4} {
		db.Parallelism(par)
		if got := db.MustQuery(q).String(); got != want {
			b.Fatalf("parallelism %d changed the result", par)
		}
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.MustQuery(q)
			}
		})
	}
}

// --- P3: chunked parallel array scans + runtime projection pruning -----------

// BenchmarkParallelScan is P3: the scan itself — not just post-scan
// operators — split into store chunks across the morsel pool, with the
// optimizer's pruned projection applied at runtime. filter-heavy runs
// a residual (non-pushable) predicate over a 1M-cell array serially
// and at 4 workers; projection compares a full five-column scan
// against the pruned three-column scan of the same filter (ReportAllocs
// makes the skipped attribute materialization visible). Expected shape:
// near-linear scan scaling on a >= 4-core host (single-core containers
// show only scheduling overhead, as with P1); pruning wins on any host.
func BenchmarkParallelScan(b *testing.B) {
	const n = 1024 // 1024x1024 = 1,048,576 cells
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY bigscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0, c FLOAT DEFAULT 3.0)`, n, n))
	const filterQ = `SELECT x, y, a FROM bigscan WHERE MOD(x * 31 + y, 7) < 3 AND MOD(x + y, 5) <> 0 AND a > 0`
	db.Parallelism(1)
	want := db.MustQuery(filterQ).NumRows()
	for _, par := range []int{1, 4} {
		db.Parallelism(par)
		if got := db.MustQuery(filterQ).NumRows(); got != want {
			b.Fatalf("parallelism %d changed the result: %d rows, want %d", par, got, want)
		}
		b.Run(fmt.Sprintf("filter-heavy/workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.MustQuery(filterQ)
			}
		})
	}
	db.Parallelism(4)
	const fullQ = `SELECT x, y, a, b, c FROM bigscan WHERE MOD(x * 31 + y, 7) = 0`
	const prunedQ = `SELECT x, y, a FROM bigscan WHERE MOD(x * 31 + y, 7) = 0`
	b.Run("projection/full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.MustQuery(fullQ)
		}
	})
	b.Run("projection/pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.MustQuery(prunedQ)
		}
	})
}

// --- P4: vectorized execution (BAT kernels vs interpreter) --------------------

// BenchmarkVectorizedScan is P4: filter + projection compiled into
// bulk column-at-a-time kernels over scan chunks versus the
// tree-walking interpreter, single-core, on the P3 workload shape
// (1M-cell filter-heavy scan). ReportAllocs makes the collapse from
// per-row boxing to per-batch vectors visible. projection compares a
// full five-column scan against the pruned three-column scan, both
// vectorized. Expected shape: >= 2x from vectorization on any host
// (it removes interpretation overhead, not memory bandwidth), with
// allocations down by orders of magnitude.
func BenchmarkVectorizedScan(b *testing.B) {
	const n = 1024 // 1024x1024 = 1,048,576 cells
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY vecscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0, c FLOAT DEFAULT 3.0)`, n, n))
	const filterQ = `SELECT x, y, a FROM vecscan WHERE MOD(x * 31 + y, 7) < 3 AND MOD(x + y, 5) <> 0 AND a > 0`
	const fullQ = `SELECT x, y, a, b, c FROM vecscan WHERE MOD(x * 31 + y, 7) = 0`
	const prunedQ = `SELECT x, y, a FROM vecscan WHERE MOD(x * 31 + y, 7) = 0`
	db.Parallelism(1)
	db.Vectorize(false)
	want := db.MustQuery(filterQ).String()
	db.Vectorize(true)
	if got := db.MustQuery(filterQ).String(); got != want {
		b.Fatal("vectorized result differs from the interpreter")
	}
	for _, vec := range []bool{false, true} {
		db.Vectorize(vec)
		name := "interpreted"
		if vec {
			name = "vectorized"
		}
		b.Run("filter-heavy/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.MustQuery(filterQ)
			}
		})
		b.Run("projection-full/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.MustQuery(fullQ)
			}
		})
		b.Run("projection-pruned/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.MustQuery(prunedQ)
			}
		})
	}
	db.Vectorize(true)
}

// --- P8: zone-map chunk skipping + parallel partitioned hash join ------------

// BenchmarkChunkSkip is P8a: the same 256k-cell filter scan with
// zone-map chunk skipping disabled and enabled, at three selectivities
// of a range predicate over a monotone attribute. Expected shape:
// skipping wins big at 1% (nearly every chunk's [min,max] misses the
// range), still clearly at 34%, and costs nothing measurable at 100%
// (the pre-scan bound check is one comparison per chunk). Results are
// byte-identical either way — skipping only prunes chunks whose bounds
// prove no cell can match.
func BenchmarkChunkSkip(b *testing.B) {
	const n = 512 // 512x512 = 262,144 cells
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY zbench (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(fmt.Sprintf(`UPDATE zbench SET v = x * %d + y`, n))
	db.Parallelism(1)
	cells := int64(n) * int64(n)
	for _, pct := range []int64{1, 34, 100} {
		q := fmt.Sprintf(`SELECT x, y, v FROM zbench WHERE v < %d`, cells*pct/100)
		db.ChunkSkip(false)
		want := db.MustQuery(q).String()
		db.ChunkSkip(true)
		if got := db.MustQuery(q).String(); got != want {
			b.Fatalf("chunk skipping changed the result at %d%% selectivity", pct)
		}
		for _, skip := range []bool{false, true} {
			db.ChunkSkip(skip)
			name := "skip=off"
			if skip {
				name = "skip=on"
			}
			b.Run(fmt.Sprintf("sel=%d%%/%s", pct, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.MustQuery(q)
				}
			})
		}
	}
	db.ChunkSkip(true)
}

// BenchmarkParallelJoin is P8b: the partitioned hash join over the
// morsel pool — build side chosen by estimated cardinality (the small
// dimension table), probe side partitioned into store chunks across
// workers. Byte-identity with the serial join is asserted at every
// width. Expected shape on a multi-core host: probe scaling tracks
// worker count; single-core containers show only the partition/merge
// overhead floor.
func BenchmarkParallelJoin(b *testing.B) {
	const n = 256 // 256x256 = 65,536 probe cells
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY jl (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(fmt.Sprintf(`UPDATE jl SET v = x * %d + y`, n))
	db.MustExec(`CREATE ARRAY jr (x INTEGER DIMENSION[64], y INTEGER DIMENSION[64], s FLOAT DEFAULT 3.0)`)
	for _, tc := range []struct{ name, q string }{
		// Two integer key columns: two raw words per key.
		{"dims", `SELECT l.x, l.y, (l.v + r.s) AS e FROM jl AS l JOIN jr AS r ON l.x = r.x AND l.y = r.y`},
		// A FLOAT attribute against an INTEGER dimension: one numeric word.
		{"attr", `SELECT l.x, l.y, r.y AS ry FROM jl AS l JOIN jr[0:64][0:2] AS r ON l.v = r.x`},
	} {
		db.Parallelism(1)
		want := db.MustQuery(tc.q).String()
		for _, par := range []int{1, 2, 4} {
			db.Parallelism(par)
			if got := db.MustQuery(tc.q).String(); got != want {
				b.Fatalf("%s: parallelism %d changed the join result", tc.name, par)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.MustQuery(tc.q)
				}
			})
		}
	}
}

// --- X2: data-vault lazy metadata access -------------------------------------

// BenchmarkVaultLazyCount compares the header-only COUNT of the data
// vault against full ingestion + scan. Expected shape: orders of
// magnitude apart (§2.1).
func BenchmarkVaultLazyCount(b *testing.B) {
	v, err := experiments.NewVaultFixture(256, 50000)
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	b.Run("header-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := v.LazyCount(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-ingest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := v.FullCount(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- X3: black-box marshaling cost --------------------------------------------

// BenchmarkBlackBoxMarshal measures the §6.2 recast: marshaling a
// row-major store to a row-major library buffer (aligned, memcpy-like)
// vs marshaling a column-major store to the same buffer (per-element
// re-addressing).
func BenchmarkBlackBoxMarshal(b *testing.B) {
	m, err := experiments.NewMarshalFixture(512)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("aligned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.MarshalAligned(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.MarshalRecast(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- P2: prepared statements vs ad-hoc text --------------------------------

// BenchmarkPreparedVsAdhoc quantifies the plan-cache win on repeated
// parameterized SELECTs: "adhoc-uncached" re-parses and re-plans every
// execution (statement cache disabled), "adhoc-cached" hits the DB's
// LRU statement cache, and "prepared" re-executes a *sciql.Stmt. The
// array is small so parse+plan dominates; with parallelism configured
// the planner's fold/compile/pushdown/prune pass sits on the ad-hoc
// hot path and is skipped by the cached and prepared variants.
func BenchmarkPreparedVsAdhoc(b *testing.B) {
	const q = `SELECT x, y, v, SQRT(v) + POWER(v, 0.25) AS s,
	        CASE WHEN MOD(x + y, 2) = 0 THEN v * 2.0 ELSE v / 2.0 END AS w
	      FROM bench
	      WHERE x >= ?x AND x < ?x + 8 AND y >= 0 AND y < 16
	        AND v > ?lo AND MOD(x * 31 + y, 7) <> 3
	        AND (v < 1000000 OR SQRT(v + 1) > 0 OR POWER(v, 2) < 100000000)`
	open := func(b *testing.B) *sciql.DB {
		b.Helper()
		db := sciql.Open()
		db.MustExec(`CREATE ARRAY bench (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)
		db.MustExec(`UPDATE bench SET v = x * 31 + y`)
		db.Parallelism(4)
		return db
	}
	args := func(i int) []sciql.Arg {
		return []sciql.Arg{sciql.Int("x", int64(i)%4), sciql.Float("lo", 1)}
	}
	b.Run("adhoc-uncached", func(b *testing.B) {
		db := open(b)
		db.SetPlanCacheSize(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q, args(i)...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adhoc-cached", func(b *testing.B) {
		db := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q, args(i)...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		db := open(b)
		st, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(args(i)...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentReaders measures connection scaling on the
// 1M-cell scan: the same aggregate query drained by 1 vs 4 concurrent
// sciql.Conn sessions. With snapshot-pinned reads and no shared
// statement mutex, N connections do N scans in roughly the wall time
// of one on an N-core machine (single-core containers show the
// overhead floor instead). The P5 experiment in cmd/sciqlbench
// records the same shape with wall-clock timing.
func BenchmarkConcurrentReaders(b *testing.B) {
	const n = 1024 // 1024x1024 = 1,048,576 cells
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY conc (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0)`, n, n))
	const q = `SELECT x, y, a FROM conc WHERE MOD(x * 31 + y, 7) < 3`
	for _, conns := range []int{1, 4} {
		b.Run(fmt.Sprintf("conns-%d", conns), func(b *testing.B) {
			sessions := make([]*sciql.Conn, conns)
			for i := range sessions {
				c, err := db.Conn(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				sessions[i] = c
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, c := range sessions {
					wg.Add(1)
					go func(c *sciql.Conn) {
						defer wg.Done()
						rows, err := c.QueryContext(context.Background(), q)
						if err != nil {
							b.Error(err)
							return
						}
						defer rows.Close()
						for rows.Next() {
						}
						if err := rows.Err(); err != nil {
							b.Error(err)
						}
					}(c)
				}
				wg.Wait()
			}
		})
	}
}

// --- DML: small writes on large arrays --------------------------------------

// dmlBenchDB builds a side x side array of the shape write_mixed
// updates (two FLOATs and an INTEGER, no defaults, every cell loaded).
func dmlBenchDB(b *testing.B, name string, side int) *sciql.DB {
	b.Helper()
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY %s (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], a FLOAT, b FLOAT, c INTEGER)`, name, side, side))
	db.MustExec(fmt.Sprintf(`UPDATE %s SET a = x * %d + y, b = MOD(x * 7 + y, 1000), c = MOD(x + y, 16)`, name, side))
	return db
}

// BenchmarkDMLUpdate updates a rotating 64x64 box (4 Ki cells) of a
// 1 Mi-cell array, one autocommit statement per iteration. The cost
// should follow the box — the segments it touches are copied, the
// rest of the array is shared with the previous version — not the
// array.
func BenchmarkDMLUpdate(b *testing.B) {
	db := dmlBenchDB(b, "big", 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := i%16*64, i/16%16*64
		db.MustExec(fmt.Sprintf(`UPDATE big SET a = a + 1 WHERE x >= %d AND x < %d AND y >= %d AND y < %d`, x, x+64, y, y+64))
	}
}

// BenchmarkDMLDelete deletes a rotating 16x16 box (256 cells) of a
// 64 Ki-cell array and puts it back, so every iteration starts from a
// full array. No line dies, so the cells are reset in place.
func BenchmarkDMLDelete(b *testing.B) {
	db := dmlBenchDB(b, "plate", 256)
	db.MustExec(`CREATE ARRAY stage (x INTEGER DIMENSION[256], y INTEGER DIMENSION[256], a FLOAT, b FLOAT, c INTEGER)`)
	db.MustExec(`INSERT INTO stage SELECT [x], [y], a, b, c FROM plate`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box := fmt.Sprintf(`x >= %d AND x < %d AND y >= %d AND y < %d`, i%16*16, i%16*16+16, i/16%16*16, i/16%16*16+16)
		db.MustExec(`DELETE FROM plate WHERE ` + box)
		b.StopTimer()
		db.MustExec(`INSERT INTO plate SELECT [x], [y], a, b, c FROM stage WHERE ` + box)
		b.StartTimer()
	}
}

// --- The result path: column batches to the client ---------------------------

// BenchmarkRowsDrain reads a 300 k-row filter result (the shape of
// scan_analytics' widest statement) through Next + Scan into typed
// destinations: the cursor serves column batches and Scan reads their
// slots, so the drain allocates per batch, not per row or cell.
func BenchmarkRowsDrain(b *testing.B) {
	db := dmlBenchDB(b, "sky", 1024)
	const q = `SELECT x, y, a FROM sky WHERE c < 5` // 5 of 16 residues: ~328 k of 1 Mi rows
	b.ReportAllocs()
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		rs, err := db.QueryContext(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		var x, y int64
		var a, sum float64
		for rs.Next() {
			if err := rs.Scan(&x, &y, &a); err != nil {
				b.Fatal(err)
			}
			sum += a + float64(x+y)
			rows++
		}
		if err := rs.Err(); err != nil || sum == 0 {
			b.Fatalf("drain: sum %v, err %v", sum, err)
		}
		rs.Close()
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkWireFetch fetches a 1 024-row result (wire_mixed's fetch
// class) over loopback pgwire with the simple-query protocol: statement
// cache hit, streamed scan, DataRow frames formatted from the column
// batch into the connection's frame buffer, and the client's decode.
func BenchmarkWireFetch(b *testing.B) {
	db := dmlBenchDB(b, "tile", 32)
	srv := server.New(db, server.Config{PgAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c, err := pgwire.Dial(srv.PgAddr(), pgwire.ClientConfig{Timeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.SimpleQuery(`SELECT x, y, a, c FROM tile`)
		if err != nil || len(res) != 1 || len(res[0].Rows) != 1024 {
			b.Fatalf("fetch: %d results, err %v", len(res), err)
		}
	}
}
