package engine

import (
	"testing"
	"time"

	"ezbft/internal/types"
)

const watchBound = 500 * time.Millisecond

func setOf(ids ...types.ReplicaID) ReplicaSet {
	var s ReplicaSet
	for _, id := range ids {
		s.Add(id, MaxReplicas)
	}
	return s
}

// miss expires, for the replicas in missing, the timer of a request sent at
// issued: a closed-loop client's, which sends the next after this one ends.
func miss(w *ReplyWatch, missing ReplicaSet, issued time.Duration) {
	w.Expired(missing, issued, issued+watchBound)
}

// markR3 returns a watch of four replicas in which R3 has just been marked
// for the first time.
func markR3(t *testing.T) *ReplyWatch {
	t.Helper()
	w := NewReplyWatch(4, watchBound)
	miss(&w, setOf(3), 0)
	miss(&w, setOf(3), watchBound)
	if w.Silent() != setOf(3) {
		t.Fatalf("two misses in a row: silent = %b, want R3", w.Silent())
	}
	return &w
}

func TestReplicaSet(t *testing.T) {
	var s ReplicaSet
	if !s.Add(2, 4) || s.Add(2, 4) || s.Add(4, 4) || s.Add(-1, 4) {
		t.Fatal("Add must accept a replica of the cluster once and nothing else")
	}
	if !s.Has(2) || s.Has(1) {
		t.Fatalf("Has: set %b", s)
	}
	if AllReplicas(4) != 0b1111 || AllReplicas(MaxReplicas) != ^ReplicaSet(0) {
		t.Fatalf("AllReplicas: %b, %b", AllReplicas(4), AllReplicas(MaxReplicas))
	}
}

// TestReplyWatchMarksOnSecondMissInARow pins rule (a): one miss does not mark,
// two in a row do, and an answer in between starts the count again.
func TestReplyWatchMarksOnSecondMissInARow(t *testing.T) {
	all := AllReplicas(4)
	w := NewReplyWatch(4, watchBound)
	miss(&w, setOf(3), 0)
	if w.Silent() != 0 {
		t.Fatalf("one miss marked: %b", w.Silent())
	}
	// The request that missed is decided without R3: that is not an answer.
	w.Decided(all&^setOf(3), time.Second)
	if w.Silent() != 0 {
		t.Fatalf("deciding the request that missed marked: %b", w.Silent())
	}
	w.Decided(all, 2*time.Second) // R3 answers the next one
	miss(&w, setOf(3), 2*time.Second)
	if w.Silent() != 0 {
		t.Fatalf("a miss, an answer, a miss marked: %b", w.Silent())
	}
	miss(&w, setOf(3)|setOf(1), 3*time.Second)
	if w.Silent() != setOf(3) {
		t.Fatalf("silent = %b, want R3 alone (R1 missed once)", w.Silent())
	}
	miss(&w, setOf(1), 4*time.Second)
	if w.Silent() != setOf(1, 3) {
		t.Fatalf("silent = %b, want R1 and R3", w.Silent())
	}
}

// TestReplyWatchOneStallIsOneMiss: a replica that stalls for less than the
// bound makes every request a pipelined client has in flight expire, one after
// the other. They were all sent before the first expiry was noticed, so they
// are one miss; only a request sent after that, and missed too, is the second.
func TestReplyWatchOneStallIsOneMiss(t *testing.T) {
	w := NewReplyWatch(4, watchBound)
	const gap = 5 * time.Millisecond // a request every 5 ms
	first := watchBound              // the first expiry: the request sent at 0
	for issued := time.Duration(0); issued < first; issued += gap {
		w.Expired(setOf(3), issued, issued+watchBound)
	}
	if w.Silent() != 0 {
		t.Fatalf("%d requests in flight through one stall marked: %b", int(first/gap), w.Silent())
	}
	w.Expired(setOf(3), first, first+watchBound)
	if w.Silent() != setOf(3) {
		t.Fatal("a request sent after the first miss was noticed, and missed too, did not mark")
	}
}

// TestReplyWatchProbation pins rule (c): a mark is lifted by an unbroken run of
// answers lasting the probation, not by less, not by time alone, and not by a
// run with a gap in it.
func TestReplyWatchProbation(t *testing.T) {
	all := AllReplicas(4)
	others := all &^ setOf(3)
	const probation = probationStart * watchBound

	w := markR3(t)
	// Time passing proves nothing: decisions R3 did not answer, for an hour.
	for now := time.Duration(0); now < time.Hour; now += time.Minute {
		w.Decided(others, now)
	}
	if w.Silent() != setOf(3) {
		t.Fatal("a replica that never answered was un-marked by the passage of time")
	}
	// Nor does one answer, however late.
	w.Decided(all, 2*time.Hour)
	if w.Silent() != setOf(3) {
		t.Fatal("a single answer un-marked")
	}

	w = markR3(t)
	w.Decided(all, 0)
	w.Decided(all, probation-time.Millisecond)
	if w.Silent() != setOf(3) {
		t.Fatal("a run of answers shorter than the probation un-marked")
	}
	w.Decided(all, probation)
	if w.Silent() != 0 {
		t.Fatal("a run of answers as long as the probation did not un-mark")
	}

	w = markR3(t)
	w.Decided(all, 0)
	w.Decided(others, probation/2) // a decision without R3 breaks the run
	w.Decided(all, probation/2+time.Millisecond)
	w.Decided(all, probation)
	if w.Silent() != setOf(3) {
		t.Fatal("a run broken by an unanswered decision un-marked at the original deadline")
	}
	w.Decided(all, probation/2+time.Millisecond+probation)
	if w.Silent() != 0 {
		t.Fatal("a full run after the break did not un-mark")
	}

	w = markR3(t)
	w.Decided(all, 0)
	miss(w, setOf(3), 0) // so does an expiry it missed
	w.Decided(all, probation)
	if w.Silent() != setOf(3) {
		t.Fatal("a run broken by a missed expiry un-marked at the original deadline")
	}
}

// relapse takes R3 from marked through one probation of answers (un-marked)
// and two misses (marked again), starting at now, and returns the probation it
// had to serve.
func relapse(t *testing.T, w *ReplyWatch, now time.Duration) time.Duration {
	t.Helper()
	all := AllReplicas(4)
	w.Decided(all, now)
	served := time.Duration(0)
	for w.Silent() != 0 {
		served += watchBound
		if served > 2*probationCap*watchBound {
			t.Fatal("never un-marked")
		}
		w.Decided(all, now+served)
	}
	miss(w, setOf(3), now+served)
	miss(w, setOf(3), now+served+watchBound)
	if w.Silent() != setOf(3) {
		t.Fatal("relapse did not mark")
	}
	return served
}

// TestReplyWatchRelapseDoublesUpToTheCap: each time a replica is marked again
// its probation doubles, from 4 × the bound up to 64 × and no further.
func TestReplyWatchRelapseDoublesUpToTheCap(t *testing.T) {
	w := markR3(t)
	now := time.Duration(0)
	want := []int{4, 8, 16, 32, 64, 64, 64}
	for i, mult := range want {
		got := relapse(t, w, now)
		if got != time.Duration(mult)*watchBound {
			t.Fatalf("probation %d = %v, want %d × the bound", i, got, mult)
		}
		now += got + 2*watchBound + time.Second
	}
}

// TestReplyWatchAlternatingReplicaStallsAShrinkingShare plays the strongest
// on/off adversary against a closed-loop client: R3 answers exactly as long as
// it takes to be waited for again, then goes silent until it is marked, and
// repeats. Without the watch it stalls every request it is silent for; with
// it, the share of requests that wait out the timer falls below 5 % within
// ten relapses and never rises from one relapse to the next.
func TestReplyWatchAlternatingReplicaStallsAShrinkingShare(t *testing.T) {
	const latency = watchBound / 2 // a request whose replies all come
	all := AllReplicas(4)
	others := all &^ setOf(3)
	w := NewReplyWatch(4, watchBound)
	now := time.Duration(0)

	last := 1.0
	for cycle := 0; cycle < 15; cycle++ {
		requests, stalled := 0, 0
		// Silent until marked: each request waits out the timer.
		for w.Silent() == 0 {
			now += watchBound
			w.Expired(setOf(3), now-watchBound, now)
			now += latency
			w.Decided(others, now)
			requests++
			stalled++
		}
		// Answering until waited for again: no request waits.
		for w.Silent() != 0 {
			now += latency
			w.Decided(all, now)
			requests++
		}
		share := float64(stalled) / float64(requests)
		if stalled != 2 {
			t.Fatalf("cycle %d: %d requests stalled, want 2", cycle, stalled)
		}
		if share > last {
			t.Fatalf("cycle %d: stalled share rose from %.3f to %.3f", cycle, last, share)
		}
		if cycle >= 10 && share >= 0.05 {
			t.Fatalf("cycle %d: stalled share %.3f, want below 0.05", cycle, share)
		}
		last = share
	}
	if last >= 0.02 {
		t.Fatalf("stalled share at the cap %.3f, want below 0.02", last)
	}
}
