// Command benchmark is the repository's wall-clock benchmark: six named
// open-loop workloads against the public API, end-to-end metrics computed
// per one-second window and reported as the median across windows, and a
// traced mode that re-runs a workload on a cluster assembled from wrapped
// layers to say where a request's time went. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics in print order with their units;
// BENCHMARK.json fixes direction and bound.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"ok_share", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"setup_s", "s"},
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: the whole suite)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same commands")
		seconds   = flag.Int("seconds", 0, "measured seconds per workload (default: the workload's own)")
		trace     = flag.Int("trace", 0, "1 = per-layer metrics from the self-assembled, wrapped cluster; 0 = end-to-end metrics")
		layers    = flag.Bool("layers", false, "print the per-layer microbenchmark table and exit")
		selfcheck = flag.Bool("selfcheck", false, "run every workload A B A B and compare the two sides against the bounds")
		quick     = flag.Bool("quick", false, "one second per workload: a smoke run, not comparable")
		ckpt      = flag.Int64("checkpoint", -1, "override the workloads' checkpoint interval (reproduces README's finding; not comparable)")
	)
	flag.Parse()
	// One P for the replicas, the clients and the generator together. With
	// two Ps on the reference host's two virtual processors a run settles
	// for its whole length in one of two regimes, the second P parked or
	// kept awake (0.49 or 0.75 ms of processor time per request, 0.23 or
	// 0.30 ms median latency on tcp_ezbft), and which one is chance.
	runtime.GOMAXPROCS(1)
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	suite := append([]spec(nil), workloads...)
	if *workload != "" {
		sp, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		suite = []spec{sp}
	}
	if *ckpt >= 0 {
		for i := range suite {
			suite[i].checkpoint = uint64(*ckpt)
		}
	}
	standard := !*quick && *ckpt < 0 // the configuration other runs can be compared with
	windowsOf := func(sp spec) int {
		switch {
		case *quick:
			return 1
		case *seconds > 0:
			return *seconds
		default:
			return sp.seconds
		}
	}

	// Hard exit: whatever wedges, no process of the benchmark outlives its
	// plan by more than the slack. A single-workload run (what a driver
	// starts) stays under three minutes.
	planned := 30 * time.Second
	for _, sp := range suite {
		per := warmup + time.Duration(windowsOf(sp))*windowLength + watchdogSlack
		if *selfcheck {
			per *= 4
		}
		planned += per
	}
	time.AfterFunc(planned, func() {
		fmt.Fprintln(os.Stderr, "benchmark: hard watchdog fired after", planned)
		os.Exit(3)
	})

	scratch, err := os.MkdirTemp("", "ezbft-benchmark-")
	if err != nil {
		fatal(err)
	}
	code := 0
	switch {
	case *layers:
		printLayers(os.Stdout, microbenchmarks(scratch))
	case *selfcheck:
		if !selfCheck(suite, *seed, windowsOf, scratch) {
			code = 1
		}
	default:
		var last *report
		for _, sp := range suite {
			rep, err := runWorkload(sp, runOpts{seed: *seed, windows: windowsOf(sp), trace: *trace == 1, scratch: scratch})
			if err != nil {
				os.RemoveAll(scratch)
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			rep.Meta.Comparable = standard
			printReport(rep)
			if !rep.Correct {
				code = 1
			}
			last = rep
		}
		if len(suite) == 1 {
			// The result line a driver reads: last, and nothing after it.
			printResult(last)
		}
	}
	os.RemoveAll(scratch)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printReport prints one workload's metrics by name and unit, then the
// full record as one JSON line.
func printReport(rep *report) {
	fmt.Printf("== %s  attempted=%d failed=%d correct=%v\n", rep.Workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Println("   PROBLEM:", p)
	}
	if !rep.Meta.Comparable {
		fmt.Println("   -quick or -checkpoint run: not comparable with any other run")
	}
	for _, m := range endToEnd {
		if v, ok := rep.EndToEnd[m.name]; ok {
			fmt.Printf("   %-28s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	names := make([]string, 0, len(rep.PerLayer))
	for name := range rep.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-48s %14.4f %s\n", name, rep.PerLayer[name], layerUnit(name))
	}
	line, err := json.Marshal(sanitized(rep))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("report %s\n", line)
}

// sanitized returns the report with NaN values (a window without commits)
// replaced by -1, which JSON can carry and no metric takes.
func sanitized(rep *report) *report {
	cp := *rep
	clean := func(in map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(in))
		for k, v := range in {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = -1
			}
			out[k] = v
		}
		return out
	}
	cp.EndToEnd, cp.PerLayer = clean(rep.EndToEnd), clean(rep.PerLayer)
	cp.Windows = append([][5]float64(nil), rep.Windows...)
	for i := range cp.Windows {
		for j, v := range cp.Windows[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				cp.Windows[i][j] = -1
			}
		}
	}
	return &cp
}

// printResult prints the one-line result: exactly the keys correct,
// attempted, failed and metrics.
func printResult(rep *report) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]metric{}}
	clean := sanitized(rep)
	for _, m := range endToEnd {
		if v, ok := clean.EndToEnd[m.name]; ok {
			out.Metrics[m.name] = metric{v, m.unit}
		}
	}
	for name, v := range clean.PerLayer {
		out.Metrics[name] = metric{v, layerUnit(name)}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
