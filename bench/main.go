// Command bench is the repository's one benchmark: four workloads, seven
// end-to-end metrics each, every result verified against an oracle
// computed in plain Go from the seed, and a separate traced run that
// attributes time to layers. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// deadline ends a run that hangs before the driver's 180 s limit does.
const deadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: scan_analytics, structural_join, wire_mixed or write_mixed")
	seed := flag.Int64("seed", 1, "seed of the generated data and literals")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds at the speed of the commit that sized the op counts")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	out := flag.String("out", "bench/out", "directory for span files")
	aa := flag.Int("aa", 0, "run every workload, or the one --workload names, 2 x N times as two interleaved sets and compare them")
	flag.Parse()

	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *workload))
	}
	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %s\n", sp.name, deadline)
		os.Exit(3)
	})
	cfg := newConfig(sp, *seed, *seconds)
	cfg.outDir = *out
	printStamp(cfg)
	run := runEndToEnd
	if *trace != 0 {
		run = runTraced
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printStamp prints what a number depends on besides the code under
// test. It goes on a line of its own before the results, so the last
// line of standard output stays the result object.
func printStamp(cfg config) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("stamp: nproc=%d gomaxprocs=%d go=%s gcpercent=%d seed=%d commit=%s rounds=%d round_ops=%d\n",
		runtime.NumCPU(), cfg.p.workers, runtime.Version(), gcPercent, cfg.p.seed, commit, cfg.rounds, cfg.roundOps)
}
