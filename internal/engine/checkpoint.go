package engine

import (
	"slices"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// This file hosts the checkpointing contract every protocol's log lifecycle
// (lifecycle.go) runs on. Replicas periodically exchange signed CHECKPOINT
// votes vouching that a prefix of an ordered log has been executed against
// an agreed digest; the tracker collects those votes, establishes *stable*
// checkpoints (2f+1 distinct replicas vouching for the same (space, mark,
// digest)), advances per-space low-water marks and retains the vote set as
// a transferable proof. The Lifecycle reacts to each newly stable mark once:
// the protocol frees log state below it and — through the
// types.Checkpointer and types.Snapshotter application hooks — lets the
// replicated application snapshot or truncate its own journal.
//
// Sequenced protocols (PBFT, Zyzzyva, FaB) use a single space (0) whose
// mark is the executed sequence number, and vote with Checkpoint; ezBFT
// checkpoints each instance space independently, the space identifier
// naming the space's owner replica, and votes with its own message. Both
// are CheckpointVotes, so one tracker and one proof check serve both shapes.

// Signed is a lifecycle message: a signed wire message that names the
// replica it comes from.
type Signed interface {
	codec.Message
	SignedMessage
	// Signer returns the replica the message claims to come from and its
	// signature over the body.
	Signer() (types.ReplicaID, []byte)
}

// CheckpointVote is one replica's signed CHECKPOINT vote: its voter is its
// signer.
type CheckpointVote interface {
	Signed
	// Ballot returns what the vote vouches for: the space, the mark in it,
	// and the digest of the space's executed prefix up to the mark.
	Ballot() (space CheckpointSpace, mark uint64, digest types.Digest)
}

// CheckpointSpace identifies one checkpointed log dimension: a protocol
// sequence space (always 0 for the single-log baselines) or an ezBFT
// instance space (the owner replica's id).
type CheckpointSpace int32

// CheckpointStats is a tracker's counters, surfaced through each
// protocol's ReplicaStats.
type CheckpointStats struct {
	Checkpoints  uint64 // stable checkpoints established locally
	LowWaterMark uint64 // the smallest stable mark of the spaces that have one
}

// StableCheckpoint is one established checkpoint: the agreed mark and
// digest, plus the signed votes that prove 2f+1 replicas vouched for it —
// the proof a state-transfer response carries.
type StableCheckpoint[V CheckpointVote] struct {
	Space  CheckpointSpace
	Mark   uint64
	Digest types.Digest
	// Votes holds one vote per vouching replica (at least quorum many), in
	// voter order, so a snapshot or transfer that carries them has the same
	// bytes at every replica and every run.
	Votes []V
}

// CheckpointTracker implements the quorum-collection half of the contract.
// It is owned by a single replica process and must only be touched from its
// loop (no internal locking).
type CheckpointTracker[V CheckpointVote] struct {
	quorum   int
	interval uint64

	// votes accumulates per-(space, mark) ballots until stability.
	votes map[ckptKey]map[types.ReplicaID]V
	// stable retains the latest stable checkpoint per space (the proof a
	// catch-up response serves).
	stable map[CheckpointSpace]*StableCheckpoint[V]

	stats CheckpointStats
}

type ckptKey struct {
	space CheckpointSpace
	mark  uint64
}

// NewCheckpointTracker builds a tracker for a cluster of n replicas
// checkpointing every `interval` executions. Interval 0 disables
// checkpointing: Enabled reports false and Record ignores votes, so a
// disabled deployment does no extra work and sends no extra bytes.
func NewCheckpointTracker[V CheckpointVote](n int, interval uint64) *CheckpointTracker[V] {
	return &CheckpointTracker[V]{
		quorum:   2*((n-1)/3) + 1,
		interval: interval,
		votes:    make(map[ckptKey]map[types.ReplicaID]V),
		stable:   make(map[CheckpointSpace]*StableCheckpoint[V]),
	}
}

// Enabled reports whether checkpointing is active.
func (t *CheckpointTracker[V]) Enabled() bool { return t.interval > 0 }

// Boundary reports whether mark is a checkpoint boundary (a positive
// multiple of the interval).
func (t *CheckpointTracker[V]) Boundary(mark uint64) bool {
	return t.Enabled() && mark > 0 && mark%t.interval == 0
}

// Mark returns the stable low-water mark of a space (0 = none yet).
func (t *CheckpointTracker[V]) Mark(space CheckpointSpace) uint64 {
	if s, ok := t.stable[space]; ok {
		return s.Mark
	}
	return 0
}

// Stable returns the latest stable checkpoint of a space with its proof,
// or nil.
func (t *CheckpointTracker[V]) Stable(space CheckpointSpace) *StableCheckpoint[V] {
	return t.stable[space]
}

// Stats returns the tracker's counters. LowWaterMark is the minimum stable
// mark across spaces holding one.
func (t *CheckpointTracker[V]) Stats() CheckpointStats {
	s := t.stats
	for _, st := range t.stable {
		if s.LowWaterMark == 0 || st.Mark < s.LowWaterMark { // marks are positive
			s.LowWaterMark = st.Mark
		}
	}
	return s
}

// maxBallotsPerVoter bounds the outstanding (space, mark) ballots retained
// per voting replica in one space: honest replicas vote boundary after
// boundary and their older marks stabilize promptly, so a deep per-voter
// backlog only ever belongs to a Byzantine voter spraying distinct marks.
// When a voter exceeds the bound its lowest outstanding mark is evicted,
// so one faulty replica cannot grow a correct replica's tracker without
// bound — in the subsystem whose whole point is bounded memory.
const maxBallotsPerVoter = 8

// Record tallies one vote, whose signature the caller has checked; the
// vote is retained as proof material. It returns the newly established
// stable checkpoint when this vote completes a 2f+1 matching quorum above
// the space's current mark, and nil otherwise. Votes at or below an
// established mark, at marks that are not interval boundaries (honest
// replicas only emit boundaries), and duplicate votes from one replica are
// ignored; conflicting digests from one replica replace the earlier ballot
// (the later message carries the valid signature that was just checked).
// Ballot state below a newly stable mark is pruned and each voter's
// outstanding ballots are capped, so the tracker's memory is bounded
// regardless of Byzantine vote spraying.
func (t *CheckpointTracker[V]) Record(v V) *StableCheckpoint[V] {
	space, mark, digest := v.Ballot()
	from, _ := v.Signer()
	if !t.Boundary(mark) || mark <= t.Mark(space) {
		return nil
	}
	key := ckptKey{space, mark}
	ballots, ok := t.votes[key]
	if !ok {
		ballots = make(map[types.ReplicaID]V, t.quorum)
		t.votes[key] = ballots
	}
	if _, dup := ballots[from]; !dup {
		t.evictExcessBallots(space, from)
	}
	ballots[from] = v

	// Stable with 2f+1 matching digests.
	var voters []types.ReplicaID
	for id, b := range ballots {
		if _, _, d := b.Ballot(); d == digest {
			voters = append(voters, id)
		}
	}
	if len(voters) < t.quorum {
		return nil
	}
	slices.Sort(voters)
	st := &StableCheckpoint[V]{Space: space, Mark: mark, Digest: digest}
	for _, id := range voters {
		st.Votes = append(st.Votes, ballots[id])
	}
	t.stable[space] = st
	t.stats.Checkpoints++
	// Drop ballot state made moot by the new mark.
	for k := range t.votes {
		if k.space == space && k.mark <= mark {
			delete(t.votes, k)
		}
	}
	return st
}

// evictExcessBallots drops a voter's lowest outstanding marks in a space
// until it is below maxBallotsPerVoter, making room for one more.
func (t *CheckpointTracker[V]) evictExcessBallots(space CheckpointSpace, from types.ReplicaID) {
	var marks []uint64
	for k, ballots := range t.votes {
		if k.space != space {
			continue
		}
		if _, ok := ballots[from]; ok {
			marks = append(marks, k.mark)
		}
	}
	for len(marks) >= maxBallotsPerVoter {
		lowest := slices.Index(marks, slices.Min(marks))
		key := ckptKey{space, marks[lowest]}
		delete(t.votes[key], from)
		if len(t.votes[key]) == 0 {
			delete(t.votes, key)
		}
		marks = slices.Delete(marks, lowest, lowest+1)
	}
}
