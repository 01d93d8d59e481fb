package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the self-check reads: each
// end-to-end metric's direction and regression bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs every workload four times, A B A B, on consecutive seeds,
// and holds the two sides (each the mean of its two runs) against the
// bounds of BENCHMARK.json in the working directory: the same code must
// agree with itself within the bound it sets for others. It reports whether
// every metric of every workload did.
func selfCheck(suite []spec, seed int64, windowsOf func(spec) int, scratch string) bool {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck runs from the repository root:", err)
		return false
	}
	pass := true
	for _, sp := range suite {
		var sides [2]map[string]float64
		for i := range sides {
			sides[i] = map[string]float64{}
		}
		for run := 0; run < 4; run++ {
			rep, err := runWorkload(sp, runOpts{seed: seed + int64(run), windows: windowsOf(sp), scratch: scratch})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return false
			}
			if !rep.Correct {
				fmt.Printf("%s run %d: incorrect: %v\n", sp.name, run, rep.Problems)
				pass = false
			}
			for name, v := range rep.EndToEnd {
				sides[run%2][name] += v / 2
			}
		}
		fmt.Printf("== %s  (A = runs 1,3; B = runs 2,4)\n", sp.name)
		for _, e := range m.EndToEnd {
			a, b := sides[0][e.Name], sides[1][e.Name]
			diff := math.Abs(worseBy(a, b, e.Better))
			verdict := "ok"
			if !(diff <= e.Bound) { // also catches NaN
				verdict, pass = "EXCEEDS BOUND", false
			}
			fmt.Printf("   %-18s A %12.4f  B %12.4f  differ by %.4f  bound %.4f  %s\n", e.Name, a, b, diff, e.Bound, verdict)
		}
	}
	return pass
}
