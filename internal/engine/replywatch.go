package engine

import (
	"math/bits"
	"time"

	"ezbft/internal/types"
)

// MaxReplicas bounds the cluster size of the protocols that keep replica
// sets in one word (ReplicaSet).
const MaxReplicas = 64

// ReplicaSet is a set of replica ids, one bit each.
type ReplicaSet uint64

// AllReplicas returns the set of every replica of a cluster of n.
func AllReplicas(n int) ReplicaSet {
	if n >= MaxReplicas {
		return ^ReplicaSet(0)
	}
	return 1<<n - 1
}

// Add inserts id; false if it names no replica of a cluster of n or is in.
func (s *ReplicaSet) Add(id types.ReplicaID, n int) bool {
	if id < 0 || int(id) >= n || *s&(1<<id) != 0 {
		return false
	}
	*s |= 1 << id
	return true
}

// Has reports whether id, a replica of the cluster, is in the set.
func (s ReplicaSet) Has(id types.ReplicaID) bool { return s&(1<<id) != 0 }

// The constants of ReplyWatch's rules, beside the 2 of "two misses in a row"
// that the missed bit encodes. They are not settings: the tests and the
// recorded measurements hold for these values.
const (
	probationStart = 4  // × the bound: the first mark's probation
	probationCap   = 64 // × the bound: where doubling stops
)

// ReplyWatch is a speculative client's record of which replicas have stopped
// answering it. A fast path that needs every replica's reply makes the
// client wait out its slow-path timer whenever one is missing; the watch is
// what lets a replica that stays silent cost the client that timer twice
// rather than once per request.
//
//   - A miss is the slow-path timer expiring on a request for which the
//     client held a slow quorum and the replica's reply was not in it
//     (Expired). Two misses in a row mark the replica silent, the second on
//     a request sent after the first was noticed: one stall makes every
//     request in flight late at once and is still one miss. An answer in
//     between starts the count again, so an overloaded replica that is late
//     now and then is never marked.
//   - The client does not wait for a silent replica (Silent), but still
//     listens to it: a reply from one counts wherever a reply counts.
//   - A mark is lifted by answers, never by time passing: the replica must
//     have answered, before the decision, every request the client decided
//     (Decided) over a probation period — 4 × the bound at first, doubling
//     each time the replica is marked again, up to 64 × — so one that never
//     comes back is never waited for again, and one that alternates makes
//     the client wait for a share of its requests that only shrinks.
//
// Every method is a function of the watch's state and its arguments alone,
// so a simulated client stays deterministic. A ReplyWatch belongs to one
// client and is touched only from its loop.
type ReplyWatch struct {
	bound time.Duration
	// missed holds the unmarked replicas that missed the last expiry and
	// have not answered since.
	missed ReplicaSet
	silent ReplicaSet
	// proving holds the silent replicas that have answered every decision
	// since marks[id].since.
	proving ReplicaSet
	marks   []replyMark
}

// replyMark is what the watch keeps per replica beside its bits.
type replyMark struct {
	// missedAt is when the miss recorded in ReplyWatch.missed was noticed.
	missedAt time.Duration
	// probation is how long a run of answers lifts the current mark; it
	// outlives the mark so that the next one doubles it.
	probation time.Duration
	since     time.Duration
}

// NewReplyWatch returns the watch of a client of n replicas whose slow-path
// timer is bound.
func NewReplyWatch(n int, bound time.Duration) ReplyWatch {
	return ReplyWatch{bound: bound, marks: make([]replyMark, n)}
}

// Silent returns the replicas not worth waiting for.
func (w *ReplyWatch) Silent() ReplicaSet { return w.silent }

// Expired records that at now the slow-path timer fired on a request sent at
// issued, for which the client held a slow quorum while the replicas in
// missing had not answered.
func (w *ReplyWatch) Expired(missing ReplicaSet, issued, now time.Duration) {
	w.proving &^= missing
	for s := missing &^ w.silent; s != 0; s &= s - 1 {
		bit := s &^ (s - 1)
		m := &w.marks[bits.TrailingZeros64(uint64(s))]
		switch {
		case w.missed&bit == 0:
			w.missed |= bit
			m.missedAt = now
		case issued >= m.missedAt:
			w.missed &^= bit
			w.silent |= bit
			m.probation = min(max(2*m.probation, probationStart*w.bound), probationCap*w.bound)
		}
	}
}

// Decided records that a request finished at now, by which time the replicas
// in answered had answered it.
func (w *ReplyWatch) Decided(answered ReplicaSet, now time.Duration) {
	w.missed &^= answered
	if w.silent == 0 {
		return
	}
	w.proving &= answered
	for s := w.silent & answered; s != 0; s &= s - 1 {
		bit := s &^ (s - 1)
		m := &w.marks[bits.TrailingZeros64(uint64(s))]
		switch {
		case w.proving&bit == 0:
			w.proving |= bit
			m.since = now
		case now-m.since >= m.probation:
			w.silent &^= bit
			w.proving &^= bit
		}
	}
}
