package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestBucket(t *testing.T) {
	at := func(d time.Duration) sample { return sample{at: d, ok: true} }
	samples := []sample{
		at(-time.Millisecond), // warm-up
		at(0), at(windowLength - 1),
		at(windowLength),
		at(2*windowLength - 1),
		at(2 * windowLength), // past the last window: drain
	}
	got := bucket(samples, windowLength, 2)
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("bucket sizes = %d/%d, want 2/2", len(got[0]), len(got[1]))
	}
	if got[1][0].at != windowLength {
		t.Errorf("a sample on a boundary belongs to the window it opens, got %v", got[1][0].at)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestAcrossWindows(t *testing.T) {
	thr := func(w windowStats) float64 { return w.throughput }
	p50 := func(w windowStats) float64 { return w.p50 }
	// Two windows hit by a hiccup of the host (300, 40 ms) do not move
	// the median of five.
	five := []windowStats{
		{throughput: 1000, p50: 0.8}, {throughput: 300, p50: 40}, {throughput: 1001, p50: 0.82},
		{throughput: 1700, p50: 0.9}, {throughput: 999, p50: 0.81},
	}
	if got := across(five, thr); got != 1000 {
		t.Errorf("throughput across windows = %v, want 1000", got)
	}
	if got := across(five, p50); got != 0.82 {
		t.Errorf("p50 across windows = %v, want 0.82", got)
	}
	// Windows without a commit carry NaN and are left out.
	gaps := []windowStats{{throughput: 10, p50: math.NaN()}, {throughput: 30, p50: 7}, {throughput: 20, p50: math.NaN()}}
	if got := across(gaps, p50); got != 7 {
		t.Errorf("p50 across one usable window = %v, want 7", got)
	}
	if got := across(nil, thr); !math.IsNaN(got) {
		t.Errorf("no windows must give NaN, got %v", got)
	}
}

func TestTail(t *testing.T) {
	// 2 windows × 600 commits of 1..1200 ms plus failures: p99 is rank
	// 1188 of the committed ones, whichever window they fell in.
	windows := make([][]sample, 2)
	for i := 1; i <= 1200; i++ {
		windows[i%2] = append(windows[i%2], sample{latency: time.Duration(i) * time.Millisecond, ok: true})
	}
	windows[0] = append(windows[0], sample{latency: time.Hour}) // failed
	if v, used := tail(windows); v != 1188 || used != 0.99 {
		t.Errorf("tail = %v at %v, want 1188 at 0.99", v, used)
	}
}

func TestPercentileGuard(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// 1200 samples: p99 is rank 1188 with 12 beyond it.
	if v, used := percentile(seq(1200), 0.99); v != 1188 || used != 0.99 {
		t.Errorf("p99 of 1200 = %v at %v, want 1188 at 0.99", v, used)
	}
	// 500 samples leave only 5 beyond rank 495: lowered to rank 490.
	if v, used := percentile(seq(500), 0.99); v != 490 || used != 0.98 {
		t.Errorf("p99 of 500 = %v at %v, want 490 at 0.98", v, used)
	}
	if v, _ := percentile(seq(1200), 0.5); v != 600 {
		t.Errorf("p50 of 1200 = %v, want 600", v)
	}
	if v, used := percentile(seq(minBeyond), 0.5); !math.IsNaN(v) || used != 0 {
		t.Errorf("too few samples must give NaN, got %v at %v", v, used)
	}
}

func TestOpenLoopLatency(t *testing.T) {
	ms := time.Millisecond
	// Accepted 2 ms after it was issued: the user waited that too.
	if lat := openLoopLatency(60*ms, 100*ms, 102*ms); lat != 62*ms {
		t.Errorf("late accept: latency %v, want 62ms", lat)
	}
	// A generator running early never shortens a latency.
	if lat := openLoopLatency(60*ms, 100*ms, 99*ms); lat != 60*ms {
		t.Errorf("early accept: latency %v, want 60ms", lat)
	}
}

func TestFailureAccounting(t *testing.T) {
	windows := [][]sample{
		{{ok: true}, {ok: false}, {ok: true}},
		{{ok: false}},
	}
	if attempted, failed := account(windows); attempted != 4 || failed != 2 {
		t.Errorf("account = %d attempted %d failed, want 4 and 2", attempted, failed)
	}
}

func TestSummarize(t *testing.T) {
	w := make([]sample, 0, 30)
	for i := 1; i <= 30; i++ {
		// 30 commits, 10 ms apart: 29 intervals in 0.29 s.
		w = append(w, sample{at: time.Duration(10*i) * time.Millisecond, latency: time.Duration(i) * time.Millisecond, ok: true})
	}
	w = append(w, sample{at: time.Second, latency: time.Hour}) // failed: no latency, no commit
	from := usage{cpu: time.Second, alloc: 1 << 20}
	to := usage{cpu: time.Second + 60*time.Millisecond, alloc: 1<<20 + 30*2048}
	st := summarize(w, from, to)
	if st.commits != 30 || math.Abs(st.throughput-100) > 1e-9 {
		t.Errorf("commits %d throughput %v, want 30 and 100/s", st.commits, st.throughput)
	}
	if st.p50 != 15 {
		t.Errorf("p50 %v, want 15", st.p50)
	}
	if st.cpuPerOp != 2 || st.allocPerOp != 2 {
		t.Errorf("per op: cpu %v ms alloc %v KiB, want 2 and 2", st.cpuPerOp, st.allocPerOp)
	}
	if empty := summarize(nil, from, to); !math.IsNaN(empty.cpuPerOp) || !math.IsNaN(empty.p50) || !math.IsNaN(empty.throughput) {
		t.Error("a window without commits must not report per-op numbers")
	}
}

func TestCmdGenIsAFunctionOfTheSeed(t *testing.T) {
	a, b, other := newCmdGen(7, 0, 0.1), newCmdGen(7, 0, 0.1), newCmdGen(8, 0, 0.1)
	same := true
	for i := 0; i < 1000; i++ {
		x, y, z := a.next(), b.next(), other.next()
		if x.Key != y.Key || string(x.Value) != string(y.Value) {
			t.Fatalf("command %d differs under one seed: %v vs %v", i, x, y)
		}
		same = same && x.Key == z.Key
	}
	if same {
		t.Error("two seeds gave the same key sequence")
	}
}

func TestCmdGenKeysDoNotRecurInFlight(t *testing.T) {
	g := newCmdGen(3, 1, 0)
	seen := map[string]int{}
	for i := 0; i < 2*keyRingSize; i++ {
		key := g.next().Key
		if prev, ok := seen[key]; ok && i-prev != keyRingSize {
			t.Fatalf("key %s recurred after %d commands, want %d", key, i-prev, keyRingSize)
		}
		seen[key] = i
	}
	for k, last := range g.lastWrite {
		if want := seen[g.keys[k]] + 1; int(last) != want {
			t.Fatalf("lastWrite[%d] = %d, want %d", k, last, want)
		}
	}
}

// TestManifestMatchesCode holds BENCHMARK.json against the names and units
// the benchmark prints.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q %q, defined %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: listed %s [%s], printed %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(m.PerLayer), len(layerMetrics))
	}
	for i, e := range m.PerLayer {
		if e.Name != layerMetrics[i].name || e.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: listed %s [%s], printed %s [%s]", i, e.Name, e.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
