package engine

import (
	"bytes"
	"slices"
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
	// Tags are the wire tags the protocol gives the lifecycle messages.
	Tags LogTags
	// Interval is the checkpoint distance in sequence numbers; 0 disables
	// checkpointing, and with it truncation and state transfer.
	Interval uint64
	// RetryBase is how long an unanswered transfer request waits before it
	// goes to the next voters; later rounds back off (proc.Backoff).
	RetryBase time.Duration
}

// LogHost is a protocol's half of its Lifecycle: the replica's gated send
// paths, timers and write-ahead log, and the few log operations the shared
// checkpoint and transfer code needs.
type LogHost interface {
	// Send and Broadcast (to every other replica) go through the replica's
	// own fault-injection and durability gates.
	Send(ctx proc.Context, to types.NodeID, msg codec.Message)
	Broadcast(ctx proc.Context, msg codec.Message)
	AfterTimer(ctx proc.Context, d time.Duration, fn func(ctx proc.Context)) proc.TimerID
	// Append logs one record (Shell.Append): every vote the replica signs or
	// accepts, before it is tallied. Persist cuts the durable snapshot
	// (Sequencer.Persist), at each newly stable checkpoint and after each
	// installed transfer.
	Append(kind uint8, fill func(w *codec.Writer))
	Persist()
	// Recovering reports whether the replica is rebuilding itself from its
	// store: it requests no transfer then.
	Recovering() bool
	// View is the replica's current view.
	View() uint64
	// MaxExecuted is the highest contiguously executed sequence number.
	MaxExecuted() uint64
	// ExecutedSuffix returns the contiguous executed slots above mark that
	// the replica still holds.
	ExecutedSuffix(mark uint64) []CatchupSlot
	// Truncate frees log state at and below a newly stable mark.
	Truncate(mark uint64)
	// DropLog forgets every slot at or below mark and makes mark the
	// executed watermark: the application state there was just installed
	// (by a transfer or from the store), with aux the value the protocol
	// keeps beside it.
	DropLog(mark uint64, aux types.Digest)
	// ReplaySlot executes one transferred slot at Executed()+1 and advances
	// the watermark to it.
	ReplaySlot(ctx proc.Context, s *CatchupSlot)
	// AdoptView moves the replica forward to view, if it is behind it.
	AdoptView(ctx proc.Context, view uint64)
	// Installed runs after a transfer installed: whatever it made
	// contiguous executes.
	Installed(ctx proc.Context)
}

// LogStats is a Lifecycle's counters.
type LogStats struct {
	CheckpointStats
	CatchupsServed    uint64 // transfers served to lagging peers
	CatchupsInstalled uint64 // transfers installed, snapshot or tail
	CatchupMismatches uint64 // responders outvoted by an installed f+1 agreement
	DroppedInvalid    uint64 // lifecycle messages rejected
}

// Lifecycle is the sequenced log lifecycle PBFT, Zyzzyva and FaB share:
// CHECKPOINT votes and their tally, truncation below stable checkpoints,
// the application states kept for transfer, and checkpoint-anchored state
// transfer under the f+1 rule of the package comment. A protocol routes the
// three lifecycle messages here and supplies the rest as a LogHost. A
// Lifecycle belongs to one replica and is touched only from its loop.
type Lifecycle struct {
	cfg     LogConfig
	f       int
	host    LogHost
	ckpt    *CheckpointTracker
	states  *StateKeeper
	emitted uint64 // highest sequence number this replica voted for

	// One transfer is solicited at a time. The voter window rotates round
	// by round (attempts), unanswered rounds back off (retries), and tail
	// marks a round that asked only for the executed suffix above a
	// watermark already at the stable mark. resps buffers validated
	// responses per responder until f+1 agree; it survives retry rounds so
	// agreement can form across rotations. vouched is the highest slot that
	// every responder of an installed agreement claimed to have executed.
	pending  bool
	tail     bool
	attempts uint64
	retries  int
	resps    map[types.ReplicaID]*CatchupResp
	vouched  uint64

	stats LogStats
}

// NewLifecycle builds one replica's lifecycle over its protocol half.
func NewLifecycle(cfg LogConfig, host LogHost) *Lifecycle {
	return &Lifecycle{
		cfg:    cfg,
		f:      (cfg.N - 1) / 3,
		host:   host,
		ckpt:   NewCheckpointTracker(cfg.N, cfg.Interval),
		states: NewStateKeeper(cfg.App, cfg.Interval),
		resps:  make(map[types.ReplicaID]*CatchupResp),
	}
}

// Enabled reports whether checkpointing is on.
func (l *Lifecycle) Enabled() bool { return l.ckpt.Enabled() }

// Mark returns the latest stable checkpoint's sequence number (0 = none).
func (l *Lifecycle) Mark() uint64 { return l.ckpt.Mark(0) }

// Stable returns the latest stable checkpoint with its proof, or nil.
func (l *Lifecycle) Stable() *StableCheckpoint { return l.ckpt.Stable(0) }

// StateAt returns the serialized application state kept at seq.
func (l *Lifecycle) StateAt(seq uint64) ([]byte, bool) {
	snap, _, ok := l.states.Snapshot(seq)
	return snap, ok
}

// Stats returns the lifecycle's counters.
func (l *Lifecycle) Stats() LogStats {
	s := l.stats
	s.CheckpointStats = l.ckpt.Stats()
	return s
}

// Recovered re-seeds the lifecycle from a durable snapshot: the proof of
// the stable mark it was cut at, and the application state there (already
// restored) with the protocol's aux value beside it, which the log adopts
// as a transfer's would be (LogHost.DropLog).
func (l *Lifecycle) Recovered(mark uint64, snap []byte, aux types.Digest, votes []*Checkpoint) {
	for _, v := range votes {
		l.ckpt.Record(0, v.Seq, v.Replica, v.Digest, v)
	}
	l.states.Adopt(mark, snap, aux)
	l.host.DropLog(mark, aux)
}

// logVote write-ahead-logs a vote the replica signed or accepted, as its
// tagged frame.
func (l *Lifecycle) logVote(m *Checkpoint) {
	l.host.Append(WALVote, func(w *codec.Writer) {
		w.Uint8(m.Tag())
		m.MarshalTo(w)
	})
}

// MaybeEmit votes for the executed watermark when it sits on a checkpoint
// boundary not voted for yet. The application state there is kept, with
// aux beside it, as the transfer payload should the checkpoint become
// stable.
func (l *Lifecycle) MaybeEmit(ctx proc.Context, aux types.Digest) {
	seq := l.host.MaxExecuted()
	if !l.ckpt.Boundary(seq) || seq <= l.emitted {
		return
	}
	l.emitted = seq
	ck := &Checkpoint{Seq: seq, Digest: l.cfg.App.Digest(), Replica: l.cfg.Self, tag: l.cfg.Tags.Checkpoint}
	l.states.Keep(seq, aux)
	l.cfg.Costs.ChargeSign(ctx)
	ck.Sig = SignBody(l.cfg.Auth, ck)
	l.logVote(ck)
	l.host.Broadcast(ctx, ck)
	l.Record(ctx, ck)
}

// HandleCheckpoint validates and tallies a peer's vote.
func (l *Lifecycle) HandleCheckpoint(ctx proc.Context, m *Checkpoint) {
	if !l.Enabled() || !l.Valid(ctx, m.Replica, m, m.Sig) {
		return
	}
	l.logVote(m)
	l.Record(ctx, m)
}

// Record tallies one vote; a newly stable checkpoint truncates the log,
// cuts the durable snapshot, surfaces to the application's Checkpointer
// hook, and — when the executed watermark trails the mark, whose gap peers
// may already have truncated — starts a state transfer.
func (l *Lifecycle) Record(ctx proc.Context, m *Checkpoint) {
	st := l.ckpt.Record(0, m.Seq, m.Replica, m.Digest, m)
	if st == nil {
		return
	}
	l.host.Truncate(st.Mark)
	l.host.Persist()
	if ck, ok := l.cfg.App.(types.Checkpointer); ok {
		ck.Checkpoint(st.Mark, st.Digest)
	}
	if l.host.MaxExecuted() < st.Mark && !l.host.Recovering() {
		l.request(ctx, st)
	}
}

// RecordProof tallies the proof of a stable checkpoint a NEW-VIEW starts
// from, so a replica behind it fetches the state there.
func (l *Lifecycle) RecordProof(ctx proc.Context, proof []*Checkpoint) {
	if !l.Enabled() {
		return
	}
	for _, v := range proof {
		l.logVote(v)
		l.Record(ctx, v)
	}
}

// Pull requests a transfer anchored at the latest stable checkpoint, if
// there is one: a replica that learned it is behind by other means than a
// stable vote (FaB's STATUS beacon, recovery from a store) calls it.
func (l *Lifecycle) Pull(ctx proc.Context) {
	if st := l.Stable(); st != nil {
		l.request(ctx, st)
	}
}

// behind reports whether the watermark trails the stable mark st, or a
// slot an installed agreement's responders all vouched for.
func (l *Lifecycle) behind(st *StableCheckpoint) bool {
	exec := l.host.MaxExecuted()
	return exec < st.Mark || exec < l.vouched
}

// request solicits a transfer anchored at st from f+1 of its voters —
// enough that at least one is correct — so the responses can cross-validate
// each other. The voter window rotates round by round, so silent or lying
// voters cannot wedge the transfer, and an unanswered round is re-issued
// with jittered exponential backoff.
func (l *Lifecycle) request(ctx proc.Context, st *StableCheckpoint) {
	if l.pending {
		return
	}
	var voters []types.ReplicaID
	for _, v := range st.Votes {
		if ck := v.(*Checkpoint); ck.Replica != l.cfg.Self {
			voters = append(voters, ck.Replica)
		}
	}
	if len(voters) == 0 {
		return
	}
	slices.Sort(voters)
	base := int(l.attempts) % len(voters)
	l.attempts++
	l.pending = true
	l.tail = l.host.MaxExecuted() >= st.Mark
	req := &CatchupReq{Replica: l.cfg.Self, tag: l.cfg.Tags.CatchupReq}
	l.cfg.Costs.ChargeSign(ctx)
	req.Sig = SignBody(l.cfg.Auth, req)
	for k := 0; k < min(l.f+1, len(voters)); k++ {
		l.host.Send(ctx, types.ReplicaNode(voters[(base+k)%len(voters)]), req)
	}
	l.host.AfterTimer(ctx, proc.Backoff(ctx, l.cfg.RetryBase, l.retries), func(ctx proc.Context) {
		if !l.pending {
			return
		}
		l.pending = false
		l.retries++
		if st := l.Stable(); st != nil && l.behind(st) {
			l.request(ctx, st)
		}
	})
}

// HandleCatchupReq serves a state transfer: the latest stable checkpoint's
// proof, the state kept at exactly its sequence number, and every retained
// executed slot above it.
func (l *Lifecycle) HandleCatchupReq(ctx proc.Context, m *CatchupReq) {
	if m.Replica == l.cfg.Self {
		l.stats.DroppedInvalid++
		return
	}
	if !l.Valid(ctx, m.Replica, m, m.Sig) {
		return
	}
	st := l.Stable()
	if st == nil {
		return
	}
	snap, aux, ok := l.states.Snapshot(st.Mark)
	if !ok {
		return // no state kept for the stable point (non-Snapshotter app)
	}
	resp := &CatchupResp{
		Replica:  l.cfg.Self,
		View:     l.host.View(),
		Seq:      st.Mark,
		Digest:   st.Digest,
		Aux:      aux,
		Snapshot: snap,
		Suffix:   l.host.ExecutedSuffix(st.Mark),
		tag:      l.cfg.Tags.CatchupResp,
	}
	for _, v := range st.Votes {
		resp.Proof = append(resp.Proof, v.(*Checkpoint))
	}
	l.cfg.Costs.ChargeSign(ctx)
	resp.Sig = SignBody(l.cfg.Auth, resp)
	l.host.Send(ctx, types.ReplicaNode(m.Replica), resp)
	l.stats.CatchupsServed++
}

// HandleCatchupResp validates a state transfer and buffers it until f+1
// distinct responders agree on its anchor. A response anchored above the
// watermark installs wholesale: the snapshot is restored and must digest to
// the checkpoint's 2f+1-signed digest, or it is rolled back. A response
// anchored at or below it (a tail round) installs no snapshot. Either way
// only the suffix prefix every agreeing responder vouches for replays.
func (l *Lifecycle) HandleCatchupResp(ctx proc.Context, m *CatchupResp) {
	if !l.pending {
		return
	}
	exec := l.host.MaxExecuted()
	wholesale := m.Seq > exec
	if !wholesale {
		if !l.tail {
			return
		}
		if m.Seq+uint64(len(m.Suffix)) <= exec {
			l.pending = false // caught up by other means
			return
		}
	}
	if !l.Valid(ctx, m.Replica, m, m.Sig) {
		return
	}
	snap, isSnap := l.cfg.App.(types.Snapshotter)
	if wholesale && !isSnap {
		return
	}
	if !l.proofValid(ctx, m.Seq, m.Digest, m.Proof) {
		l.stats.DroppedInvalid++
		return
	}
	l.resps[m.Replica] = m
	var group []*CatchupResp
	for _, o := range l.resps {
		if sameAnchor(o, m) {
			group = append(group, o)
		}
	}
	if len(group) < l.f+1 {
		return // keep soliciting; the retry timer rotates to more voters
	}
	// The group provably holds a correct replica, so responders outside it
	// are a lying or stale minority: count and discard them.
	l.stats.CatchupMismatches += uint64(len(l.resps) - len(group))
	clear(l.resps)
	if wholesale {
		// Keep the pre-transfer state: should the agreed bytes still not
		// digest to the quorum-signed digest, nothing of them may stay.
		prev := snap.Snapshot()
		if err := snap.Restore(m.Snapshot); err != nil {
			l.stats.DroppedInvalid++
			return
		}
		if l.cfg.App.Digest() != m.Digest {
			_ = snap.Restore(prev)
			l.pending = false
			l.stats.DroppedInvalid++
			return
		}
		l.host.DropLog(m.Seq, m.Aux)
		l.emitted = max(l.emitted, m.Seq)
	}
	// The lowest view and the shortest suffix in the group are what every
	// member, so at least one correct replica, vouches for.
	view, end := m.View, m.Seq+uint64(len(m.Suffix))
	for _, o := range group {
		view = min(view, o.View)
		end = min(end, o.Seq+uint64(len(o.Suffix)))
	}
	l.vouched = max(l.vouched, end)
	l.host.AdoptView(ctx, view)
	l.replay(ctx, m, group)
	if cs := l.Stable(); cs == nil || cs.Mark < m.Seq {
		// Adopt the transferred checkpoint as the stable point, so stats and
		// later truncation reflect it before fresh votes arrive.
		for _, v := range m.Proof {
			l.ckpt.Record(0, v.Seq, v.Replica, v.Digest, v)
		}
	}
	l.pending = false
	l.retries = 0
	l.stats.CatchupsInstalled++
	if wholesale {
		l.states.Adopt(m.Seq, m.Snapshot, m.Aux)
	}
	l.host.Installed(ctx)
	l.host.Persist()
	if st := l.Stable(); st != nil && l.behind(st) {
		// Slots the group vouched for did not replay (its members disagreed
		// on them): ask the next voters for the tail.
		l.request(ctx, st)
	}
}

// replay executes, from the watermark up, the suffix prefix every member
// of the agreeing group vouches for: a liar inside the group (agreeing on
// the anchor) cannot smuggle in a forged slot.
func (l *Lifecycle) replay(ctx proc.Context, m *CatchupResp, group []*CatchupResp) {
	agreed := len(m.Suffix)
	for _, o := range group {
		agreed = min(agreed, len(o.Suffix))
	}
	for i := 0; i < agreed; i++ {
		for _, o := range group {
			if !slotsAgree(&m.Suffix[i], &o.Suffix[i]) {
				agreed = i
				break
			}
		}
	}
	for i := 0; i < agreed; i++ {
		s := &m.Suffix[i]
		exec := l.host.MaxExecuted()
		if s.Seq <= exec {
			continue // a tail overlaps what already executed here
		}
		if s.Seq != exec+1 {
			break
		}
		l.host.ReplaySlot(ctx, s)
	}
}

// Valid checks a replica message's claimed sender and, unless the
// transport already did, its signature, counting what it rejects.
func (l *Lifecycle) Valid(ctx proc.Context, from types.ReplicaID, m SignedMessage, sig []byte) bool {
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

// proofValid checks that a proof carries valid votes of 2f+1 distinct
// replicas for the checkpoint (seq, digest).
func (l *Lifecycle) proofValid(ctx proc.Context, seq uint64, digest types.Digest, proof []*Checkpoint) bool {
	l.cfg.Costs.ChargeVerify(ctx, len(proof))
	voted := make(map[types.ReplicaID]bool, len(proof))
	for _, v := range proof {
		if v.Seq == seq && v.Digest == digest && v.Replica >= 0 && int(v.Replica) < l.cfg.N &&
			(v.SigVerified() || VerifyBody(l.cfg.Auth, types.ReplicaNode(v.Replica), v, v.Sig) == nil) {
			voted[v.Replica] = true
		}
	}
	return len(voted) >= 2*l.f+1
}

// sameAnchor reports whether two responses anchor the same install: the
// same checkpoint, aux value and snapshot bytes.
func sameAnchor(a, b *CatchupResp) bool {
	return a.Seq == b.Seq && a.Digest == b.Digest && a.Aux == b.Aux && bytes.Equal(a.Snapshot, b.Snapshot)
}

// slotsAgree reports whether two responders vouch for the same executed
// slot: one sequence number ordering the same commands. The view is
// advisory (a replica that itself rejoined by transfer records the view it
// learned the slot in) and stays outside agreement.
func slotsAgree(a, b *CatchupSlot) bool {
	if a.Seq != b.Seq || len(a.Reqs) != len(b.Reqs) {
		return false
	}
	for i := range a.Reqs {
		if a.Reqs[i].Cmd.Digest() != b.Reqs[i].Cmd.Digest() {
			return false
		}
	}
	return true
}
