package engine

import (
	"slices"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// This file hosts the engine-level checkpointing contract every protocol's
// log-lifecycle subsystem plugs into. Protocols periodically exchange signed
// CHECKPOINT messages vouching that a prefix of an ordered log has been
// executed against an agreed digest; the tracker collects those votes,
// establishes *stable* checkpoints (2f+1 distinct replicas vouching for the
// same (space, mark, digest)), advances per-space low-water marks, retains
// the vote set as a transferable proof, and invokes the protocol's
// truncation callback exactly once per newly stable mark. The protocol then
// frees log state below the mark and — through the types.Checkpointer and
// types.Snapshotter application hooks — lets the replicated application
// snapshot or truncate its own journal.
//
// Sequenced protocols (PBFT, Zyzzyva, FaB) use a single space (0) whose
// mark is the executed sequence number; ezBFT checkpoints each instance
// space independently, with the space identifier naming the space's owner
// replica. The same tracker serves both shapes.

// CheckpointSpace identifies one checkpointed log dimension: a protocol
// sequence space (always 0 for the single-log baselines) or an ezBFT
// instance space (the owner replica's id).
type CheckpointSpace int32

// CheckpointStats is the protocol-neutral snapshot of a tracker's counters,
// surfaced through each protocol's ReplicaStats.
type CheckpointStats struct {
	// Checkpoints counts stable checkpoints established locally.
	Checkpoints uint64
	// LowWaterMark is the smallest stable mark across all spaces that have
	// one (the conservative cluster-wide truncation floor); 0 until every
	// tracked space has a stable checkpoint — for single-space protocols,
	// simply the latest stable sequence number.
	LowWaterMark uint64
}

// StableCheckpoint is one established checkpoint: the agreed mark and
// digest, plus the signed votes that prove 2f+1 replicas vouched for it —
// the proof a state-transfer response carries.
type StableCheckpoint struct {
	Space  CheckpointSpace
	Mark   uint64
	Digest types.Digest
	// Votes holds one signed CHECKPOINT message per vouching replica (at
	// least quorum many, in unspecified order). The concrete type is the
	// owning protocol's checkpoint message.
	Votes []codec.Message
}

// CheckpointTracker implements the quorum-collection half of the contract.
// It is owned by a single replica process and must only be touched from its
// loop (no internal locking).
type CheckpointTracker struct {
	quorum   int
	interval uint64

	// votes accumulates per-(space, mark) ballots until stability.
	votes map[ckptKey]map[types.ReplicaID]ckptVote
	// stable retains the latest stable checkpoint per space (the proof a
	// catch-up response serves).
	stable map[CheckpointSpace]*StableCheckpoint

	stats CheckpointStats
}

type ckptKey struct {
	space CheckpointSpace
	mark  uint64
}

type ckptVote struct {
	digest types.Digest
	msg    codec.Message
}

// NewCheckpointTracker builds a tracker for a cluster of n replicas
// checkpointing every `interval` executions. Interval 0 disables
// checkpointing: Enabled reports false and Record ignores votes, so a
// disabled deployment does no extra work and sends no extra bytes.
func NewCheckpointTracker(n int, interval uint64) *CheckpointTracker {
	return &CheckpointTracker{
		quorum:   2*((n-1)/3) + 1,
		interval: interval,
		votes:    make(map[ckptKey]map[types.ReplicaID]ckptVote),
		stable:   make(map[CheckpointSpace]*StableCheckpoint),
	}
}

// Enabled reports whether checkpointing is active.
func (t *CheckpointTracker) Enabled() bool { return t != nil && t.interval > 0 }

// Interval returns the checkpoint distance (0 = disabled).
func (t *CheckpointTracker) Interval() uint64 {
	if t == nil {
		return 0
	}
	return t.interval
}

// Boundary reports whether mark is a checkpoint boundary (a positive
// multiple of the interval).
func (t *CheckpointTracker) Boundary(mark uint64) bool {
	return t.Enabled() && mark > 0 && mark%t.interval == 0
}

// Mark returns the stable low-water mark of a space (0 = none yet).
func (t *CheckpointTracker) Mark(space CheckpointSpace) uint64 {
	if t == nil {
		return 0
	}
	if s, ok := t.stable[space]; ok {
		return s.Mark
	}
	return 0
}

// Stable returns the latest stable checkpoint of a space with its proof,
// or nil.
func (t *CheckpointTracker) Stable(space CheckpointSpace) *StableCheckpoint {
	if t == nil {
		return nil
	}
	return t.stable[space]
}

// Stats returns the tracker's counters. LowWaterMark is the minimum stable
// mark across spaces holding one.
func (t *CheckpointTracker) Stats() CheckpointStats {
	if t == nil {
		return CheckpointStats{}
	}
	s := t.stats
	s.LowWaterMark = 0
	first := true
	for _, st := range t.stable {
		if first || st.Mark < s.LowWaterMark {
			s.LowWaterMark = st.Mark
			first = false
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

// Record tallies one replica's signed checkpoint vote for (space, mark,
// digest); msg is the signed wire message retained as proof material. It
// returns the newly established stable checkpoint when this vote completes
// a 2f+1 matching quorum above the space's current mark, and nil otherwise.
// Votes at or below an established mark, at marks that are not interval
// boundaries (honest replicas only emit boundaries), and duplicate votes
// from one replica are ignored; conflicting digests from one replica
// replace the earlier ballot (the later message carries the valid
// signature that was just checked). Ballot state below a newly stable mark
// is pruned and each voter's outstanding ballots are capped, so the
// tracker's memory is bounded regardless of Byzantine vote spraying.
func (t *CheckpointTracker) Record(space CheckpointSpace, mark uint64, from types.ReplicaID, digest types.Digest, msg codec.Message) *StableCheckpoint {
	if !t.Enabled() || mark == 0 || mark%t.interval != 0 {
		return nil
	}
	if mark <= t.Mark(space) {
		return nil
	}
	key := ckptKey{space, mark}
	ballots, ok := t.votes[key]
	if !ok {
		ballots = make(map[types.ReplicaID]ckptVote, t.quorum)
		t.votes[key] = ballots
	}
	if _, dup := ballots[from]; !dup {
		t.evictExcessBallots(space, from)
	}
	ballots[from] = ckptVote{digest: digest, msg: msg}

	// Stable with 2f+1 matching digests.
	count := 0
	for _, v := range ballots {
		if v.digest == digest {
			count++
		}
	}
	if count < t.quorum {
		return nil
	}
	// The proof lists its votes in voter order, so a snapshot or transfer
	// that carries it has the same bytes at every replica and every run.
	voters := make([]types.ReplicaID, 0, len(ballots))
	for id, v := range ballots {
		if v.digest == digest && v.msg != nil {
			voters = append(voters, id)
		}
	}
	slices.Sort(voters)
	st := &StableCheckpoint{Space: space, Mark: mark, Digest: digest}
	for _, id := range voters {
		st.Votes = append(st.Votes, ballots[id].msg)
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
func (t *CheckpointTracker) evictExcessBallots(space CheckpointSpace, from types.ReplicaID) {
	var (
		marks []uint64
	)
	for k, ballots := range t.votes {
		if k.space != space {
			continue
		}
		if _, ok := ballots[from]; ok {
			marks = append(marks, k.mark)
		}
	}
	for len(marks) >= maxBallotsPerVoter {
		lowest := 0
		for i := range marks {
			if marks[i] < marks[lowest] {
				lowest = i
			}
		}
		key := ckptKey{space, marks[lowest]}
		delete(t.votes[key], from)
		if len(t.votes[key]) == 0 {
			delete(t.votes, key)
		}
		marks[lowest] = marks[len(marks)-1]
		marks = marks[:len(marks)-1]
	}
}

// VerifyProof checks a transferred stable-checkpoint proof shape: at least
// quorum distinct voters, each vouching for (space, mark, digest) according
// to the caller-supplied extractor, which returns the vote's claimed
// (replica, mark, digest) and whether its signature is valid. It is the
// receiving half of Record, used when installing a state-transfer response.
func VerifyCheckpointProof(n int, votes []codec.Message, mark uint64, digest types.Digest,
	check func(msg codec.Message) (types.ReplicaID, uint64, types.Digest, bool)) bool {
	quorum := 2*((n-1)/3) + 1
	seen := make(map[types.ReplicaID]bool, quorum)
	for _, msg := range votes {
		from, m, d, ok := check(msg)
		if !ok || m != mark || d != digest || seen[from] {
			continue
		}
		seen[from] = true
	}
	return len(seen) >= quorum
}
