package metrics

import (
	"reflect"
	"testing"
)

func TestCountersFlattensStats(t *testing.T) {
	type inner struct {
		Tails uint64
	}
	type stats struct {
		Executed   uint64
		Retries    int
		Behind     int
		Degraded   bool
		Catchup    inner
		unexported uint64
		Name       string // non-numeric: skipped
	}
	s := stats{Executed: 7, Retries: 3, Behind: -1, Degraded: true,
		Catchup: inner{Tails: 2}, unexported: 9, Name: "x"}
	want := map[string]uint64{
		"Executed":      7,
		"Retries":       3,
		"Degraded":      1,
		"Catchup.Tails": 2,
	}
	for _, v := range []any{s, &s} {
		if got := Counters(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("Counters(%T) = %v, want %v", v, got, want)
		}
	}
	if got := Counters((*stats)(nil)); len(got) != 0 {
		t.Fatalf("Counters(nil) = %v, want empty", got)
	}
}

func TestAddCounters(t *testing.T) {
	dst := map[string]uint64{"a": 1}
	AddCounters(dst, map[string]uint64{"a": 2, "b": 5})
	if dst["a"] != 3 || dst["b"] != 5 {
		t.Fatalf("AddCounters = %v", dst)
	}
}
