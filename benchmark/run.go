package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ezbft"
)

// runOpts are the settings of one workload run that do not belong to the
// workload itself.
type runOpts struct {
	seed    int64
	windows int  // measured windows of windowLength each
	trace   bool // run on the self-assembled, wrapped cluster
	scratch string
}

// meta records what a result was measured on and with.
type meta struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Windows    int     `json:"windows"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	OfferedRPS float64 `json:"offered_rps"`
	DelayMS    float64 `json:"injected_delay_ms"`
	// PercentileSamples is the smallest per-window sample count behind
	// latency_p50_ms.
	PercentileSamples int `json:"percentile_samples_min"`
	// P99MS is the 99th percentile of every measured request together, for
	// information (it is no end-to-end metric: see README.md), and
	// P99Quantile the quantile it was actually taken at (lower than 0.99
	// only when the run held too few samples to leave ten beyond it).
	P99MS       float64 `json:"latency_p99_ms"`
	P99Quantile float64 `json:"p99_quantile"`
	// StealShare is the share of the virtual machine's processor time the
	// hypervisor gave to others during the measured windows (from
	// /proc/stat; 0 where that is not available). Runs above a few per
	// cent were measured on a disturbed host.
	StealShare float64 `json:"steal_share"`
	// LatenessP50MS and LatenessP99MS are how late the generator
	// submitted, submit − due, at the median and the 99th percentile of
	// the measured requests; the reported latencies include it.
	LatenessP50MS float64 `json:"lateness_p50_ms"`
	LatenessP99MS float64 `json:"lateness_p99_ms"`
	Traced        bool    `json:"traced"`
	Comparable    bool    `json:"comparable"`
}

// report is one workload's full result.
type report struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Windows are the per-window numbers the end-to-end medians are
	// taken over: throughput, p50, cpu/op, alloc/op, and the window's
	// steal share.
	Windows [][5]float64 `json:"windows"`
	Meta    meta         `json:"meta"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
		steal: stealTicks(),
	}
}

// stealTicks reads the machine's cumulative steal time from /proc/stat, in
// ticks of 10 ms summed over the processors; 0 where there is no such file.
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64) // 0 if malformed
	return ticks
}

// stealShare is the share of the processors' time stolen between two marks
// that lie the given time apart.
func stealShare(from, to usage, apart time.Duration) float64 {
	return (to.steal - from.steal) / (apart.Seconds() * 100 * float64(runtime.NumCPU()))
}

// bringUp deploys the workload's cluster, commits one command through
// every client, and silences the workload's down replica. It returns how
// long that took. The caller closes the deployment, also after an error.
func bringUp(ctx context.Context, sp spec, o runOpts, tr *tracer) (*deployment, time.Duration, error) {
	start := time.Now()
	var (
		d   *deployment
		err error
	)
	if tr != nil {
		d, err = deployTraced(sp, o.scratch, tr)
	} else {
		d, err = deploy(sp, o.scratch)
	}
	if err != nil {
		return d, 0, err
	}
	for c, cl := range d.clients {
		if _, err := execute(ctx, cl, ezbft.Put(fmt.Sprintf("setup-%d", c), []byte{1})); err != nil {
			return d, 0, fmt.Errorf("first command of client %d: %w", c, err)
		}
	}
	if d.stopDown != nil {
		d.stopDown()
	}
	return d, time.Since(start), nil
}

// execute commits one command within requestBudget.
func execute(ctx context.Context, cl loadClient, cmd ezbft.Command) (ezbft.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, requestBudget)
	defer cancel()
	p, err := cl.Submit(ctx, cmd)
	if err != nil {
		return ezbft.Result{}, err
	}
	return p.Wait(ctx)
}

// runWorkload runs one workload once and reports its metrics: the
// end-to-end set on the public-API cluster, or with o.trace the per-layer
// set on the wrapped one. Every cluster, client and directory it creates
// is gone when it returns.
func runWorkload(sp spec, o runOpts) (*report, error) {
	length := time.Duration(o.windows) * windowLength
	// The watchdog bounds the whole run: past it, waits fail and the
	// commands still outstanding count as failed.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(setupProbes+1)*requestBudget+warmup+length+watchdogSlack)
	defer cancel()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up is timed several times; only the last cluster is loaded. The
	// traced run reports no set-up time and skips the extra ones.
	var ups []float64
	for i := 0; i < setupProbes && !o.trace; i++ {
		d, took, err := bringUp(ctx, sp, o, nil)
		d.close()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ups = append(ups, took.Seconds())
	}
	d, took, err := bringUp(ctx, sp, o, tr)
	defer d.close()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ups = append(ups, took.Seconds())

	gens := make([]*cmdGen, len(d.clients))
	for c := range gens {
		gens[c] = newCmdGen(o.seed, c, sp.hotShare)
	}
	begin := time.Now()
	t0 := begin.Add(warmup)
	end := t0.Add(length)
	loaded := make(chan []sample, 1)
	go func() { loaded <- runLoad(ctx, sp, d.clients, gens, begin, t0, end) }()

	// Resource marks at every window boundary; the traced run also flips
	// tracing per window and snapshots the replicas' counters.
	marks := make([]usage, o.windows+1)
	for w := range marks {
		time.Sleep(time.Until(t0.Add(time.Duration(w) * windowLength)))
		if d.probe != nil {
			d.probe.boundary(w, o.windows)
		}
		marks[w] = readUsage()
	}
	samples := <-loaded

	rep := &report{Workload: sp.name, Meta: newMeta(sp, o)}
	if err := checkOutputs(ctx, d, gens); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	d.close()

	windows := bucket(samples, windowLength, o.windows)
	rep.Attempted, rep.Failed = account(windows)
	stats := make([]windowStats, o.windows)
	rep.Meta.PercentileSamples = math.MaxInt
	var late []float64
	for w := range stats {
		stats[w] = summarize(windows[w], marks[w], marks[w+1])
		rep.Meta.PercentileSamples = min(rep.Meta.PercentileSamples, stats[w].commits)
		for _, s := range windows[w] {
			late = append(late, ms(s.late))
		}
		st := stats[w]
		rep.Windows = append(rep.Windows, [5]float64{st.throughput, st.p50, st.cpuPerOp, st.allocPerOp,
			stealShare(marks[w], marks[w+1], windowLength)})
	}
	rep.Meta.P99MS, rep.Meta.P99Quantile = tail(windows)
	rep.Meta.LatenessP50MS = quantile(late, 0.5)
	rep.Meta.LatenessP99MS = quantile(late, 0.99)
	rep.Meta.StealShare = stealShare(marks[0], marks[o.windows], length)
	if rep.Attempted == 0 {
		rep.Problems = append(rep.Problems, "no request fell in a measured window")
	}
	rep.Correct = len(rep.Problems) == 0

	if o.trace {
		rep.PerLayer = d.probe.metrics(sp, windows, stats, marks)
		rep.PerLayer["loadgen.latency_p99_ms"] = rep.Meta.P99MS
		for name, v := range microbenchmarks(o.scratch) {
			rep.PerLayer[name] = v
		}
		if err := tr.writeSpans(os.TempDir(), sp.name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
		}
		return rep, nil
	}
	rep.EndToEnd = map[string]float64{
		"throughput_rps":  across(stats, func(w windowStats) float64 { return w.throughput }),
		"latency_p50_ms":  across(stats, func(w windowStats) float64 { return w.p50 }),
		"ok_share":        float64(rep.Attempted-rep.Failed) / math.Max(float64(rep.Attempted), 1),
		"cpu_ms_per_op":   across(stats, func(w windowStats) float64 { return w.cpuPerOp }),
		"alloc_kb_per_op": across(stats, func(w windowStats) float64 { return w.allocPerOp }),
		"setup_s":         median(ups) + warmup.Seconds(),
	}
	return rep, nil
}

func newMeta(sp spec, o runOpts) meta {
	host, _ := os.Hostname() // informational; empty if the kernel has none
	m := meta{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Seed: o.seed,
		Windows: o.windows, WindowS: windowLength.Seconds(), WarmupS: warmup.Seconds(),
		Clients: numClients, Loop: "open", OfferedRPS: sp.rate, DelayMS: ms(sp.delay), Traced: o.trace,
	}
	return m
}
