package engine

import (
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// LogConfig configures one replica's Lifecycle.
type LogConfig struct {
	Self  types.ReplicaID
	N     int
	App   types.Application
	Auth  auth.Authenticator
	Costs proc.Costs
	// VoteRecord is the write-ahead-log record kind of a vote.
	VoteRecord uint8
	// Interval is the checkpoint distance in marks; 0 disables
	// checkpointing, and with it truncation and state transfer.
	Interval uint64
	// RetryBase is how long an unanswered transfer round waits before the
	// next one goes to the next voters; later rounds back off (proc.Backoff).
	RetryBase time.Duration
}

// LogHost is a protocol's half of its Lifecycle: what a newly stable
// checkpoint does to its log, and the payloads and the trust rule of its
// state transfer. V is the protocol's vote, Q its transfer request and T
// its transfer response.
type LogHost[V CheckpointVote, Q, T Signed] interface {
	// Stabilized truncates the log below a newly stable checkpoint, cuts the
	// durable snapshot, and reports whether the replica must fetch the state
	// there (peers may already have truncated its gap).
	Stabilized(ctx proc.Context, st *StableCheckpoint[V]) bool
	// Behind reports whether a round that went unanswered must go out again.
	Behind(st *StableCheckpoint[V]) bool
	// Solicit builds the signed request of a round anchored at st.
	Solicit(ctx proc.Context, st *StableCheckpoint[V]) Q
	// Serve builds the signed response to a valid request, if it has one.
	Serve(ctx proc.Context, m Q) (T, bool)
	// Admit judges a response to the round in flight. It checks the
	// signature itself (Lifecycle.Valid), so that what it can judge without
	// one costs no verification.
	Admit(ctx proc.Context, m T) Admission
	// Agree reports whether two responses describe the same transfer.
	Agree(a, b T) bool
	// Install installs a response with the agreeing group it came in (itself
	// alone, when admitted Adopt), and reports whether it did.
	Install(ctx proc.Context, m T, group []T) bool
}

// Admission is a LogHost's verdict on a transfer response.
type Admission uint8

const (
	Ignore  Admission = iota // nothing to act on (a failed signature is already counted)
	Reject                   // invalid: counted as dropped
	Settled                  // the replica no longer needs the round, which ends
	Agree                    // buffered until f+1 distinct responders agree on it
	Adopt                    // installed as it is: it carries its own evidence
)

// LogStats is a Lifecycle's counters.
type LogStats struct {
	CheckpointStats
	CatchupsServed    uint64 // transfers served to lagging peers
	CatchupsInstalled uint64 // transfers installed, snapshot or tail
	CatchupMismatches uint64 // responders outvoted by an installed f+1 agreement
	DroppedInvalid    uint64 // messages rejected
}

// Lifecycle is the log lifecycle all four protocols share: CHECKPOINT votes
// — emitted, validated, write-ahead-logged and tallied per space — the
// reaction to each newly stable checkpoint, the check of a 2f+1 proof, and
// the state-transfer round of a replica that fell behind one. A protocol
// routes its lifecycle messages here and supplies the rest as a LogHost.
//
// # The transfer round
//
// One transfer is in flight per replica. A round asks f+1 of the stable
// checkpoint's voters other than the replica itself — enough that one is
// correct — and the window of voters rotates round by round, so f silent
// or lying voters cannot wedge the transfer. Responses the host admits for
// agreement are buffered per responder across rounds and install once f+1
// distinct responders — so at least one correct replica — agree; the
// responders outside that group are counted (CatchupMismatches) and
// discarded.
//
// Retry rule: a round that ends without an install — unanswered, or
// answered without f+1 agreement — goes out again to the next voters after
// a delay that doubles with every such round (proc.Backoff from RetryBase,
// with jitter), whether or not it heard anything; an install resets it. A
// replica whose responders keep disagreeing therefore backs off as one
// that hears nothing does, and neither hammers its peers in lockstep.
//
// A Lifecycle belongs to one replica and is touched only from its loop.
type Lifecycle[V CheckpointVote, Q, T Signed] struct {
	// The tracker's marks and stable checkpoints, per space.
	*CheckpointTracker[V]
	cfg   LogConfig
	f     int
	shell *Shell
	host  LogHost[V, Q, T]

	// The round in flight (pending): attempts rotates the voter window,
	// retries backs off the rounds since the last install, and resps
	// buffers validated responses per responder until f+1 agree.
	pending  bool
	attempts uint64
	retries  int
	resps    map[types.ReplicaID]T

	stats LogStats
}

// NewLifecycle builds one replica's lifecycle over its shell and its
// protocol half.
func NewLifecycle[V CheckpointVote, Q, T Signed](cfg LogConfig, shell *Shell, host LogHost[V, Q, T]) *Lifecycle[V, Q, T] {
	return &Lifecycle[V, Q, T]{
		CheckpointTracker: NewCheckpointTracker[V](cfg.N, cfg.Interval),
		cfg:               cfg,
		f:                 (cfg.N - 1) / 3,
		shell:             shell,
		host:              host,
		resps:             make(map[types.ReplicaID]T),
	}
}

// Stats returns the lifecycle's counters.
func (l *Lifecycle[V, Q, T]) Stats() LogStats {
	s := l.stats
	s.CheckpointStats = l.CheckpointTracker.Stats()
	return s
}

// Adopt tallies the votes of a proof the replica trusts — its own durable
// snapshot's, or a transfer's it installed — with no reaction: the state
// they vouch for is already in place.
func (l *Lifecycle[V, Q, T]) Adopt(votes ...V) {
	for _, v := range votes {
		l.CheckpointTracker.Record(v)
	}
}

// Emit logs and tallies the replica's own signed vote, and broadcasts it.
func (l *Lifecycle[V, Q, T]) Emit(ctx proc.Context, v V) {
	l.Record(ctx, v)
	l.shell.Broadcast(ctx, v)
}

// HandleCheckpoint validates, logs and tallies a peer's vote. One that
// names a space or a voter outside the cluster is dropped and counted.
func (l *Lifecycle[V, Q, T]) HandleCheckpoint(ctx proc.Context, v V) {
	if !l.Enabled() {
		return
	}
	if space, _, _ := v.Ballot(); space < 0 || int(space) >= l.cfg.N {
		l.stats.DroppedInvalid++
		return
	}
	if from, sig := v.Signer(); l.Valid(ctx, from, v, sig) {
		l.Record(ctx, v)
	}
}

// Record write-ahead-logs a vote the replica signed or accepted, as its
// tagged frame, and tallies it. A newly stable checkpoint goes to the host
// (truncation, durable snapshot), surfaces to the application's
// Checkpointer hook, and starts a state transfer if the host is behind it
// and not rebuilding itself from its store.
func (l *Lifecycle[V, Q, T]) Record(ctx proc.Context, v V) {
	l.shell.Append(l.cfg.VoteRecord, func(w *codec.Writer) {
		w.Uint8(v.Tag())
		v.MarshalTo(w)
	})
	st := l.CheckpointTracker.Record(v)
	if st == nil {
		return
	}
	lags := l.host.Stabilized(ctx, st)
	if ck, ok := l.cfg.App.(types.Checkpointer); ok {
		ck.Checkpoint(st.Mark, st.Digest)
	}
	if lags && !l.shell.Recovering() {
		l.Request(ctx, st)
	}
}

// RecordProof logs and tallies the votes of a proof received inside
// another message (a NEW-VIEW's), reacting to the checkpoint they make
// stable.
func (l *Lifecycle[V, Q, T]) RecordProof(ctx proc.Context, proof []V) {
	if !l.Enabled() {
		return
	}
	for _, v := range proof {
		l.Record(ctx, v)
	}
}

// Request starts a transfer round anchored at st (see the type comment),
// unless one is in flight or st is nil.
func (l *Lifecycle[V, Q, T]) Request(ctx proc.Context, st *StableCheckpoint[V]) {
	if l.pending || st == nil {
		return
	}
	var voters []types.ReplicaID // in voter order, as the proof holds them
	for _, v := range st.Votes {
		if id, _ := v.Signer(); id != l.cfg.Self {
			voters = append(voters, id)
		}
	}
	if len(voters) == 0 {
		return
	}
	base := int(l.attempts) % len(voters)
	l.attempts++
	l.pending = true
	req := l.host.Solicit(ctx, st)
	for k := 0; k < min(l.f+1, len(voters)); k++ {
		l.shell.Send(ctx, types.ReplicaNode(voters[(base+k)%len(voters)]), req)
	}
	space := st.Space
	l.shell.AfterTimer(ctx, proc.Backoff(ctx, l.cfg.RetryBase, l.retries), func(ctx proc.Context) {
		if !l.pending {
			return // the round installed or settled
		}
		l.pending = false
		l.retries++
		// Waiting for the next stability signal is not enough: in a quiesced
		// cluster it may never come.
		if st := l.Stable(space); l.host.Behind(st) {
			l.Request(ctx, st)
		}
	})
}

// HandleCatchupReq serves a validly signed transfer request from a peer.
func (l *Lifecycle[V, Q, T]) HandleCatchupReq(ctx proc.Context, m Q) {
	from, sig := m.Signer()
	if from == l.cfg.Self {
		l.stats.DroppedInvalid++
		return
	}
	if !l.Valid(ctx, from, m, sig) {
		return
	}
	if resp, ok := l.host.Serve(ctx, m); ok {
		l.shell.Send(ctx, types.ReplicaNode(from), resp)
		l.stats.CatchupsServed++
	}
}

// HandleCatchupResp takes a response to the round in flight (an
// unsolicited one is ignored) through the host's verdict, the f+1
// agreement buffer and the install. A failed install is counted and ends
// the round.
func (l *Lifecycle[V, Q, T]) HandleCatchupResp(ctx proc.Context, m T) {
	if !l.pending {
		return
	}
	group := []T{m}
	switch l.host.Admit(ctx, m) {
	case Reject:
		l.stats.DroppedInvalid++
		return
	case Settled:
		// Caught up by other means: what is buffered describes a state the
		// replica has reached, and can only go stale.
		l.pending = false
		clear(l.resps)
		return
	case Agree:
		from, _ := m.Signer()
		l.resps[from] = m
		group = group[:0]
		for _, o := range l.resps {
			if l.host.Agree(o, m) {
				group = append(group, o)
			}
		}
		if len(group) < l.f+1 {
			return // keep soliciting; the retry timer rotates to more voters
		}
		// The group provably holds a correct replica, so responders outside
		// it are a lying or stale minority.
		l.stats.CatchupMismatches += uint64(len(l.resps) - len(group))
	case Adopt:
	default:
		return
	}
	// Whatever else is buffered predates this install; left around it could
	// later seat an f+1 group and regress the state.
	clear(l.resps)
	l.pending, l.retries = false, 0
	if !l.host.Install(ctx, m, group) {
		l.stats.DroppedInvalid++
		return
	}
	l.stats.CatchupsInstalled++
}

// Valid checks a replica message's claimed sender and, unless the
// transport already did, its signature, counting what it rejects.
func (l *Lifecycle[V, Q, T]) Valid(ctx proc.Context, from types.ReplicaID, m SignedMessage, sig []byte) bool {
	if from < 0 || int(from) >= l.cfg.N {
		l.stats.DroppedInvalid++
		return false
	}
	if !m.SigVerified() {
		l.cfg.Costs.ChargeVerify(ctx, 1)
		if VerifyBody(l.cfg.Auth, types.ReplicaNode(from), m, sig) != nil {
			l.stats.DroppedInvalid++
			return false
		}
	}
	return true
}

// ProofValid reports whether proof holds validly signed votes of 2f+1
// distinct replicas for (space, mark, digest); votes for anything else are
// skipped. It is the one check of a stable checkpoint's proof — in a
// transfer, a NEW-VIEW, an owner change — and charges nothing: its callers
// charge the verifications where they take them.
func (l *Lifecycle[V, Q, T]) ProofValid(space CheckpointSpace, mark uint64, digest types.Digest, proof []V) bool {
	voted := make(map[types.ReplicaID]bool, len(proof))
	for _, v := range proof {
		s, m, d := v.Ballot()
		from, sig := v.Signer()
		if s != space || m != mark || d != digest || from < 0 || int(from) >= l.cfg.N || voted[from] {
			continue
		}
		if v.SigVerified() || VerifyBody(l.cfg.Auth, types.ReplicaNode(from), v, sig) == nil {
			voted[from] = true
		}
	}
	return len(voted) >= 2*l.f+1
}
