package engine

import (
	"testing"

	"ezbft/internal/types"
)

func d(b byte) types.Digest { return types.Digest{0: b} }

func TestCheckpointTrackerQuorum(t *testing.T) {
	tr := NewCheckpointTracker[*tvote](4, 8) // quorum 3
	if !tr.Enabled() || !tr.Boundary(8) || tr.Boundary(4) {
		t.Fatal("tracker misconfigured")
	}
	if st := tr.Record(vote(0, 8, 0, d(1))); st != nil {
		t.Fatal("stable after one vote")
	}
	if st := tr.Record(vote(0, 8, 1, d(1))); st != nil {
		t.Fatal("stable after two votes")
	}
	// A mismatched digest does not count toward the quorum.
	if st := tr.Record(vote(0, 8, 2, d(9))); st != nil {
		t.Fatal("stable with mismatched digest")
	}
	st := tr.Record(vote(0, 8, 3, d(1)))
	if st == nil || st.Mark != 8 || st.Digest != d(1) {
		t.Fatalf("no stable checkpoint after 3 matching votes: %+v", st)
	}
	if tr.Mark(0) != 8 || tr.Stats().Checkpoints != 1 || tr.Stats().LowWaterMark != 8 {
		t.Fatalf("tracker state wrong: %+v", tr.Stats())
	}
	// Votes at or below the stable mark are moot.
	if st := tr.Record(vote(0, 8, 2, d(1))); st != nil {
		t.Fatal("re-stabilized an established mark")
	}
	// Non-boundary marks are rejected (honest replicas only emit
	// boundaries).
	if st := tr.Record(vote(0, 21, 0, d(1))); st != nil || len(tr.votes) != 0 {
		t.Fatal("non-boundary mark recorded")
	}
}

func TestCheckpointTrackerPerSpaceMarks(t *testing.T) {
	tr := NewCheckpointTracker[*tvote](4, 4)
	for from := types.ReplicaID(0); from < 3; from++ {
		tr.Record(vote(1, 4, from, d(1)))
		tr.Record(vote(2, 8, from, d(2)))
	}
	if tr.Mark(1) != 4 || tr.Mark(2) != 8 || tr.Mark(0) != 0 {
		t.Fatalf("per-space marks wrong: %d %d %d", tr.Mark(0), tr.Mark(1), tr.Mark(2))
	}
	// LowWaterMark is the minimum over spaces holding a mark.
	if got := tr.Stats().LowWaterMark; got != 4 {
		t.Fatalf("LowWaterMark = %d, want 4", got)
	}
}

// TestCheckpointTrackerBoundsByzantineSpray pins the memory bound: one
// voter spraying distinct marks cannot grow the tracker without bound.
func TestCheckpointTrackerBoundsByzantineSpray(t *testing.T) {
	tr := NewCheckpointTracker[*tvote](4, 8)
	for i := uint64(1); i <= 10_000; i++ {
		tr.Record(vote(0, i*8, 3, d(1)))
	}
	if got := len(tr.votes); got > maxBallotsPerVoter {
		t.Fatalf("tracker retains %d ballot marks for one sprayer, want <= %d", got, maxBallotsPerVoter)
	}
	// Honest voters at a low mark still stabilize it afterwards.
	tr2 := NewCheckpointTracker[*tvote](4, 8)
	tr2.Record(vote(0, 8, 0, d(1)))
	for i := uint64(1); i <= 1000; i++ {
		tr2.Record(vote(0, (i+1)*8, 3, d(7)))
	}
	tr2.Record(vote(0, 8, 1, d(1)))
	if st := tr2.Record(vote(0, 8, 2, d(1))); st == nil {
		t.Fatal("spray evicted honest voters' ballots")
	}
}
