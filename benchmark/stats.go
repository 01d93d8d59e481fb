package main

import (
	"math"
	"sort"
	"time"
)

// sample is one request as the load generator saw it.
type sample struct {
	// at places the request in a window: when it committed, or for a
	// failed request when it was due, as an offset from the first measured
	// instant. Negative = warm-up.
	at time.Duration
	// latency is what a user waited, by the rule of openLoopLatency.
	latency time.Duration
	// late is how long after its due time the client had accepted the
	// request: timer overshoot, the Submit call, and any stall.
	late time.Duration
	// submit is how long the Submit call itself took.
	submit time.Duration
	ok     bool // committed by its deadline
	fast   bool // committed on the fast path
}

// openLoopLatency is the open-loop latency rule: protocol latency plus the
// time from when the request was issued to when the client had accepted
// it. A request the generator could not issue on time because an earlier
// Submit held it up is issued at its due time, so a stall is charged to
// every request it delayed; one the generator slept for is issued when the
// sleep returned, because the overshoot of a timer (about half a
// millisecond here) is the generator's own and not the cluster's. A
// generator that runs early never shortens a latency.
func openLoopLatency(protocol, issued, accepted time.Duration) time.Duration {
	return protocol + max(accepted-issued, 0)
}

// bucket splits samples into n consecutive windows of the given length by
// their at offset. Samples before the first window (warm-up) or past the
// last (drain) fall in no window.
func bucket(samples []sample, window time.Duration, n int) [][]sample {
	out := make([][]sample, n)
	for _, s := range samples {
		if s.at < 0 {
			continue
		}
		if w := int(s.at / window); w < n {
			out[w] = append(out[w], s)
		}
	}
	return out
}

// median returns the middle value (mean of the middle two for an even
// count), or NaN for no values. It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted values by the
// nearest-rank rule, lowered to the highest quantile that still has
// minBeyond samples above it when the sample is too small for p. It
// reports the quantile actually used; NaN, 0 for fewer than minBeyond+1
// values.
func percentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n <= minBeyond {
		return math.NaN(), 0
	}
	// The epsilon keeps a product like 0.99 × 1200, which floating point
	// may put a hair above 1188, from rounding up a whole rank.
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if limit := n - 1 - minBeyond; rank > limit {
		rank = limit
	}
	return sorted[rank], float64(rank+1) / float64(n)
}

// quantile is the plain nearest-rank p-quantile of unsorted values, for
// the informational rows that carry no sample-count guard; 0 for none.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, max(0, int(math.Ceil(p*float64(len(s))))-1))]
}

// account counts the requests of the measured windows: attempted, and
// failed (not committed by their deadline).
func account(windows [][]sample) (attempted, failed int) {
	for _, w := range windows {
		for _, s := range w {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// usage is the process's cumulative resource use at one window boundary.
type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // bytes allocated, cumulative
	steal float64       // the machine's stolen time, in 10 ms ticks over all processors
}

// windowStats are one window's numbers; a field is NaN where the window
// has no committed request to base it on.
type windowStats struct {
	commits    int
	throughput float64 // commits / s, between the first and the last commit
	p50        float64 // ms
	cpuPerOp   float64 // ms
	allocPerOp float64 // KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize computes one window's numbers from its samples and the
// resource marks at its two boundaries.
func summarize(w []sample, from, to usage) windowStats {
	lat := make([]float64, 0, len(w))
	var first, last time.Duration // commit times of the window's first and last commit
	for _, s := range w {
		if s.ok {
			if len(lat) == 0 || s.at < first {
				first = s.at
			}
			last = max(last, s.at)
			lat = append(lat, ms(s.latency))
		}
	}
	sort.Float64s(lat)
	// The rate of commits between the window's first and last one. Under
	// an open loop the count alone is the schedule's, the same whole number
	// in every window of every run as long as the cluster keeps up.
	st := windowStats{commits: len(lat), throughput: math.NaN()}
	if last > first {
		st.throughput = float64(len(lat)-1) / (last - first).Seconds()
	}
	st.p50, _ = percentile(lat, 0.5)
	ops := float64(len(lat))
	if ops == 0 {
		ops = math.NaN()
	}
	st.cpuPerOp = ms(to.cpu-from.cpu) / ops
	st.allocPerOp = float64(to.alloc-from.alloc) / 1024 / ops
	return st
}

// across reports a field over the windows as their median, so that a
// hiccup of the shared host lands in one window of fifteen and does not
// move the report. Windows where the field is NaN (no commit to base it
// on) are left out.
func across(ws []windowStats, field func(windowStats) float64) float64 {
	xs := make([]float64, 0, len(ws))
	for _, w := range ws {
		if v := field(w); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// tail reports the 99th percentile of every committed request of the
// measured windows together, with the quantile actually used. It is
// informational: on this host it does not repeat (see README.md).
func tail(windows [][]sample) (value, used float64) {
	var lat []float64
	for _, w := range windows {
		for _, s := range w {
			if s.ok {
				lat = append(lat, ms(s.latency))
			}
		}
	}
	sort.Float64s(lat)
	return percentile(lat, 0.99)
}
