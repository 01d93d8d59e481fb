package engine

import (
	"math/rand"
	"slices"
	"testing"

	"ezbft/internal/types"
)

// TestRequestWindowContract drives a window with random orderings of Seen
// and Truncated against the contract stated on the type: a request is
// released exactly once both its entry is truncated and it lies
// ReplyRetention behind its client's highest timestamp — never earlier,
// and no later than the call that makes the second condition true.
func TestRequestWindowContract(t *testing.T) {
	type key struct {
		c  types.ClientID
		ts uint64
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		released := make(map[key]bool)
		truncated := make(map[key]bool)
		highest := make(map[types.ClientID]uint64)
		var w *RequestWindow
		w = NewRequestWindow(func(c types.ClientID, ts uint64) {
			k := key{c, ts}
			if !truncated[k] {
				t.Fatalf("seed %d: %v released before its entry was truncated", seed, k)
			}
			if ts+ReplyRetention > highest[c] {
				t.Fatalf("seed %d: %v released inside the window (highest %d)", seed, k, highest[c])
			}
			released[k] = true
		})
		var live []key // seen, not yet truncated
		for step := 0; step < 3000; step++ {
			c := types.ClientID(rng.Intn(3))
			if rng.Intn(2) == 0 || len(live) == 0 {
				// The client's next timestamp, or one a little out of order.
				ts := highest[c] + 1
				if rng.Intn(4) == 0 && highest[c] > 8 {
					ts = highest[c] - uint64(rng.Intn(8))
				}
				if ts > highest[c] {
					highest[c] = ts
				}
				w.Seen(c, ts)
				live = append(live, key{c, ts})
			} else {
				// Truncation reaches entries in no particular order (the
				// sequenced protocols range over a map of slots), and may
				// reach one request twice (duplicate instances).
				i := rng.Intn(len(live))
				k := live[i]
				truncated[k] = true
				w.Truncated(k.c, k.ts)
				if rng.Intn(8) != 0 {
					live = slices.Delete(live, i, i+1)
				}
			}
			// No later than necessary: everything truncated and below the
			// window is released by now.
			for k := range truncated {
				if k.ts+ReplyRetention <= highest[k.c] && !released[k] {
					t.Fatalf("seed %d step %d: %v is truncated and below the window (highest %d) but still held", seed, step, k, highest[k.c])
				}
			}
			for c, cw := range w.clients {
				if len(cw.waiting) > ReplyRetention {
					t.Fatalf("seed %d: client %v has %d requests waiting, bound %d", seed, c, len(cw.waiting), ReplyRetention)
				}
				if !slices.IsSorted(cw.waiting) {
					t.Fatalf("seed %d: client %v's queue is out of order: %v", seed, c, cw.waiting)
				}
			}
		}
	}
}

func TestRequestWindowBelow(t *testing.T) {
	w := NewRequestWindow(func(types.ClientID, uint64) {})
	if w.Below(1, 0) || w.Below(1, 5) {
		t.Fatal("a client never seen has no window to be below")
	}
	w.Seen(1, ReplyRetention+10)
	for ts, want := range map[uint64]bool{1: true, 10: true, 11: false, ReplyRetention + 10: false, ReplyRetention + 500: false} {
		if got := w.Below(1, ts); got != want {
			t.Errorf("Below(ts=%d) with highest %d = %v, want %v", ts, ReplyRetention+10, got, want)
		}
	}
	if w.Below(2, 1) {
		t.Fatal("windows are per client")
	}
	w.Seen(1, 3) // an older timestamp does not move the window back
	if !w.Below(1, 10) {
		t.Fatal("window moved backwards")
	}
}
