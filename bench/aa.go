package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the harness reads back: the
// bound and direction of every end-to-end metric.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// runAA runs every workload (or the only one named) 2 x n times in child processes, as two
// interleaved sets of the same code with different seeds, and prints for
// each metric the two medians, each set's quartile spread as a share of
// its median, the gap between the medians in the metric's worse
// direction, and the bound. It returns 1 if a gap or a spread (set-up
// time's spread excepted, as in the driver's check) exceeds the bound.
func runAA(n, seconds int, only string) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -aa runs from the repository root: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("# A/A noise check: 2 x %d runs per workload, --seconds %d\n\n", n, seconds)
	printStamp(newConfig(specs[0], 0, seconds))
	fmt.Printf("\nSet A uses seeds 1..%d, set B seeds %d..%d, interleaved A1 B1 A2 B2 ...\n", n, n+1, 2*n)
	fmt.Println("spread = (Q3 - Q1) / median with Python's statistics.quantiles(n=4); gap = how much worse B's median is than A's.")
	exit := 0
	for _, sp := range specs {
		if only != "" && sp.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				seed := s*n + i + 1
				res, err := child(self, sp.name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", sp.name, seed, err)
					return 2
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", sp.name)
		fmt.Println("| metric | unit | median A | median B | spread A | spread B | gap | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, mm := range man.EndToEnd {
			a, b := sets[0][mm.Name], sets[1][mm.Name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if mm.Better == "higher" {
				gap = -gap
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if gap > mm.Bound || (mm.Name != "setup_s" && max(sa, sb) > mm.Bound) {
				verdict = "NOISY"
				exit = 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.4f | %.4f | %+.4f | %.2f | %s |\n",
				mm.Name, mm.Unit, ma, mb, sa, sb, gap, mm.Bound, verdict)
		}
	}
	return exit
}

// child runs one end-to-end run in a fresh process and parses its last line.
func child(self, workload string, seed, seconds int) (result, error) {
	var res result
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, err
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), which is what the driver computes.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1 // zero-based, may fall outside
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if len(s) < 2 {
		return 0
	}
	return (q(3) - q(1)) / median(s)
}
