package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The run discipline. One process; GOMAXPROCS = min(nproc, maxWorkers)
// and the engine's parallelism set to the same; GC percent pinned; a
// forced GC before every set-up and every round; set-up repeated and its
// median reported; fixed op counts per round; timings scaled by the
// machine's speed (calib.go).
const (
	maxWorkers     = 4
	gcPercent      = 100
	setups         = 3
	rounds         = 3
	defaultSeconds = 10 // the --seconds at which roundOps is one round
	setupRefs      = 3  // reference runs before and after each set-up
)

// config is one run of one workload.
type config struct {
	spec     spec
	p        params
	setups   int
	rounds   int
	roundOps int
	warmOps  int
	outDir   string
}

func newConfig(sp spec, seed int64, seconds int) config {
	workers := min(runtime.NumCPU(), maxWorkers)
	return config{
		spec:     sp,
		p:        params{seed: seed, shrink: 1, workers: workers},
		setups:   setups,
		rounds:   rounds,
		roundOps: max(1, sp.roundOps*seconds/defaultSeconds),
		warmOps:  max(1, sp.roundOps/10),
		outDir:   "bench/out",
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pin applies the process-wide part of the run discipline.
func pin(workers int) {
	runtime.GOMAXPROCS(workers)
	debug.SetGCPercent(gcPercent)
}

// setUp builds the instance cfg.setups times on fresh databases, keeps
// the last, and returns the set-up times in seconds, each scaled by the
// machine's speed measured around it. A nil ref leaves them as measured.
func setUp(ctx context.Context, cfg config, ref *reference) (instance, []float64, error) {
	var inst instance
	var times []float64
	for k := 0; k < cfg.setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		inst = cfg.spec.new(cfg.p)
		runtime.GC()
		speed := 1.0
		if ref != nil {
			speed = ref.speed(setupRefs)
		}
		t0 := time.Now()
		if err := inst.setup(ctx); err != nil {
			return nil, nil, err
		}
		dt := time.Since(t0).Seconds()
		if ref != nil {
			speed = (speed + ref.speed(setupRefs)) / 2
		}
		times = append(times, dt*speed)
	}
	return inst, times, nil
}

// batch is what running a contiguous range of ops produced.
type batch struct {
	wall   time.Duration
	lat    []float64 // per-op latency, ms
	failed int
}

// runOps runs ops [first, first+n) closed-loop: op i on client
// i % clients, each client issuing its next op when the previous one
// returns. The first error of a run goes to standard error.
func runOps(ctx context.Context, cfg config, inst instance, first, n int, tr *tracer, parent int) batch {
	b := batch{lat: make([]float64, n)}
	errs := make([]error, n)
	client := func(c int) {
		for k := c; k < n; k += cfg.spec.clients {
			sp := tr.begin("op", parent, first+k)
			t0 := time.Now()
			errs[k] = inst.op(ctx, c, first+k, tr, sp)
			b.lat[k] = float64(time.Since(t0)) / 1e6
			tr.end(sp)
		}
	}
	t0 := time.Now()
	if cfg.spec.clients == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < cfg.spec.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	b.wall = time.Since(t0)
	for k, err := range errs {
		if err != nil {
			if b.failed == 0 {
				fmt.Fprintf(os.Stderr, "bench: %s op %d failed: %v\n", cfg.spec.name, first+k, err)
			}
			b.failed++
		}
	}
	return b
}

// allocSamples are the runtime's cumulative allocation counters. Unlike
// runtime.ReadMemStats, reading them does not stop the world, so they can
// be read around every slice.
// Objects plus tiny objects is what MemStats.Mallocs counts.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"},
}

func allocated() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64() + allocSamples[2].Value.Uint64()
}

// runEndToEnd is the untraced run: every end-to-end metric of one workload.
//
// A round is cut into slices of cfg.spec.sliceOps ops. Before each slice
// the reference runs once, and the slice's wall time, CPU time and op
// latencies are scaled by the speed it shows; allocation counters are
// read around the ops only, so the reference's own garbage is not counted.
func runEndToEnd(ctx context.Context, cfg config) (result, error) {
	pin(cfg.p.workers)
	inst, setupTimes, err := setUp(ctx, cfg, newReference(cfg.p))
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	// The set-up's reference buffers are garbage by now.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapPerCell := float64(ms.HeapAlloc) / float64(inst.cells())

	total := cfg.rounds * cfg.roundOps
	inst.prepare(cfg.warmOps + total)
	failed := runOps(ctx, cfg, inst, 0, cfg.warmOps, nil, -1).failed

	ref := newReference(cfg.p)
	var rates, lat, speeds []float64
	var cpuMS float64
	var bytes, objects uint64
	for r := 0; r < cfg.rounds; r++ {
		runtime.GC()
		var wall float64
		first := cfg.warmOps + r*cfg.roundOps
		for done := 0; done < cfg.roundOps; done += cfg.spec.sliceOps {
			speed := ref.speed(1)
			b0, o0 := allocated()
			c0 := cpuTime()
			b := runOps(ctx, cfg, inst, first+done, min(cfg.spec.sliceOps, cfg.roundOps-done), nil, -1)
			c1 := cpuTime()
			b1, o1 := allocated()
			bytes, objects = bytes+b1-b0, objects+o1-o0
			cpuMS += float64(c1-c0) / 1e6 * speed
			wall += b.wall.Seconds() * speed
			for _, l := range b.lat {
				lat = append(lat, l*speed)
			}
			speeds = append(speeds, speed)
			failed += b.failed
		}
		rates = append(rates, float64(cfg.roundOps)/wall)
	}
	ops := float64(total)
	res := result{
		Correct:   failed == 0,
		Attempted: cfg.warmOps + total,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":             {median(setupTimes), "s"},
			"ops_per_s":           {median(rates), "1/s"},
			"lat_ms_p50":          {median(lat), "ms"},
			"cpu_ms_per_op":       {cpuMS / ops, "ms"},
			"alloc_bytes_per_op":  {float64(bytes) / ops, "B"},
			"allocs_per_op":       {float64(objects) / ops, "count"},
			"heap_bytes_per_cell": {heapPerCell, "B"},
		},
	}
	fmt.Printf("%s: %d ops in %d rounds at %.4v ops/s, %d latency samples, set-ups %.3v s, machine speed %.3v (min %.3v, max %.3v) of nominal\n",
		cfg.spec.name, total, cfg.rounds, rates, len(lat), setupTimes, median(speeds), slices.Min(speeds), slices.Max(speeds))
	return res, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
