package scenario

import (
	"slices"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/core"
	"ezbft/internal/engine"
	"ezbft/internal/fab"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/zyzzyva"
)

// Env gives a strategy the facts it needs about the compromised replica.
type Env struct {
	// Self is the compromised replica.
	Self types.ReplicaID
	// N is the cluster size.
	N int
	// Auth is the replica's own authenticator: strategies re-sign the
	// messages they forge (a Byzantine replica controls its own key, and
	// nothing else).
	Auth auth.Authenticator
	// Protocol names the protocol under attack.
	Protocol engine.Protocol
}

// peers returns every other replica's node id in ascending order.
func (e Env) peers() []types.NodeID {
	out := make([]types.NodeID, 0, e.N-1)
	for i := 0; i < e.N; i++ {
		if types.ReplicaID(i) != e.Self {
			out = append(out, types.ReplicaNode(types.ReplicaID(i)))
		}
	}
	return out
}

// Strategy is a named Byzantine strategy: a constructor producing the
// engine.Behavior that drives one compromised replica.
type Strategy struct {
	Name string
	New  func(env Env) engine.Behavior
}

// Strategies returns the attack catalogue DefaultMatrix sweeps (see the
// package doc).
func Strategies() []Strategy {
	return []Strategy{
		{Name: "equivocating-owner", New: newEquivocatingOwner},
		{Name: "stale-order-replay", New: newStaleReplay},
		{Name: "checkpoint-liar", New: newCheckpointLiar},
		{Name: "commit-flood", New: newCommitFlooder},
		{Name: "silent-owner", New: func(Env) engine.Behavior { return silentOwner{} }},
		{Name: "slow-owner", New: func(Env) engine.Behavior { return slowOwner{extra: 5 * time.Millisecond} }},
		{Name: "lying-catchup", New: newLyingCatchup},
		{Name: "lying-snapshot-responder", New: newLyingSnapshotResponder},
		{Name: "silent-replier", New: func(Env) engine.Behavior { return &flappingReplier{} }},
		{Name: "flapping-replier", New: func(Env) engine.Behavior { return &flappingReplier{every: 3} }},
	}
}

// composedStrategies are catalogue entries that attack state transfer
// only, which happens only once a victim is forced to catch up: they run
// composed with the flapping partition (TestCrossValidationConviction)
// instead of in DefaultMatrix's sweep over Strategies.
func composedStrategies() []Strategy {
	return []Strategy{{Name: "forged-suffix-responder", New: newForgedSuffixResponder}}
}

// StrategyByName resolves a catalogue entry (nil when unknown).
func StrategyByName(name string) *Strategy {
	for _, s := range append(Strategies(), composedStrategies()...) {
		if s.Name == name {
			s := s
			return &s
		}
	}
	return nil
}

// isOrdering reports whether msg is a protocol's ordering frame — the
// message an owner/primary uses to assign a request its slot.
func isOrdering(msg codec.Message) bool {
	switch msg.(type) {
	case *core.SpecOrder, *pbft.PrePrepare, *zyzzyva.OrderReq, *fab.Propose:
		return true
	}
	return false
}

// passthrough supplies the no-op half of one-sided behaviors.
type passthrough struct{}

func (passthrough) Outbound(proc.Context, types.NodeID, codec.Message) bool { return true }
func (passthrough) Inbound(proc.Context, types.NodeID, codec.Message) bool  { return true }

// --- equivocating owner -------------------------------------------------

// equivocatingOwner double-signs conflicting slot assignments — the safety
// attack of the "Revisiting EZBFT" note.
//
// Against ezBFT it shadow-orders: the first SPECORDER in its own space
// goes out normally to everyone, and half the peers additionally receive a
// re-signed copy assigning the same batch the next slot too. Both
// assignments are contiguous, so the duped replicas speculatively execute
// the batch twice and reply for both instances. The client now holds two
// SPECORDERs by the same owner ordering the same request at different
// instances — the exact conflict its POM check must convict on
// (broadcasting the proof and freezing the owner's spaces), and the
// duplicate speculative execution must never survive to final state.
//
// Against the primary-based baselines it skews: half the peers see every
// ordering message re-signed one sequence number higher, so neither half
// can assemble a quorum and the view change must depose the primary.
type equivocatingOwner struct {
	passthrough
	env      Env
	halfB    map[types.NodeID]bool
	shadowed bool
}

func newEquivocatingOwner(env Env) engine.Behavior {
	peers := env.peers()
	b := &equivocatingOwner{env: env, halfB: make(map[types.NodeID]bool, len(peers))}
	for _, p := range peers[len(peers)/2:] {
		b.halfB[p] = true
	}
	return b
}

func (b *equivocatingOwner) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	if !b.halfB[to] {
		return true
	}
	switch m := msg.(type) {
	case *core.SpecOrder:
		if m.Inst.Space != b.env.Self || b.shadowed {
			return true
		}
		b.shadowed = true
		cp := *m
		cp.Inst.Slot = m.Inst.Slot + 1
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return true // the genuine order still goes out — plus the shadow
	case *pbft.PrePrepare:
		cp := *m
		cp.Seq = m.Seq + 1
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	case *zyzzyva.OrderReq:
		cp := *m
		cp.Seq = m.Seq + 1
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	case *fab.Propose:
		cp := *m
		cp.Seq = m.Seq + 1
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	}
	return true
}

// --- stale ordering replay ----------------------------------------------

// staleReplay records this replica's ordering messages and, every few
// sends, replays an old one verbatim alongside the fresh traffic. The
// signatures are genuine (they were once valid), so recipients must
// reject the replay by slot/digest dedup, not by authentication.
type staleReplay struct {
	passthrough
	history []codec.Message
	count   int
}

func newStaleReplay(Env) engine.Behavior { return &staleReplay{} }

func (b *staleReplay) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	if !isOrdering(msg) {
		return true
	}
	b.count++
	if len(b.history) > 0 && b.count%3 == 0 {
		ctx.Send(to, b.history[(b.count*7)%len(b.history)])
	}
	if len(b.history) < 16 {
		b.history = append(b.history, msg)
	} else {
		b.history[b.count%16] = msg
	}
	return true
}

// --- checkpoint-vote lying ----------------------------------------------

// checkpointLiar corrupts the state digest in every checkpoint vote this
// replica emits (re-signed, so the signature verifies). Correct replicas
// must still stabilize checkpoints from the 2f+1 honest voters, and the
// liar's votes must never contribute to a stable proof.
type checkpointLiar struct {
	passthrough
	env Env
}

func newCheckpointLiar(env Env) engine.Behavior { return &checkpointLiar{env: env} }

func (b *checkpointLiar) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	switch m := msg.(type) {
	case *core.CheckpointMsg:
		cp := *m
		cp.Digest[0] ^= 0xff
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	case *engine.Checkpoint:
		cp := *m
		cp.Digest[0] ^= 0xff
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	}
	return true
}

// --- commit flooding ----------------------------------------------------

// commitFlooder stashes the commit-class messages delivered to this
// replica and re-broadcasts one (rotating, original signature) to every
// peer on each delivery — a message-amplification replay attack. Correct
// replicas must absorb the flood through commit idempotency and the
// bounded deferred-commit parking, without state divergence or unbounded
// memory.
type commitFlooder struct {
	env   Env
	stash []codec.Message
	i     int
}

func newCommitFlooder(env Env) engine.Behavior { return &commitFlooder{env: env} }

func (b *commitFlooder) Outbound(proc.Context, types.NodeID, codec.Message) bool { return true }

func (b *commitFlooder) Inbound(ctx proc.Context, from types.NodeID, msg codec.Message) bool {
	switch msg.(type) {
	case *core.Commit, *core.CommitFast, *pbft.Prepare, *pbft.Commit, *zyzzyva.CommitCert, *fab.Accept:
		if len(b.stash) < 16 {
			b.stash = append(b.stash, msg)
		} else {
			b.stash[b.i%16] = msg
		}
	}
	if len(b.stash) > 0 {
		b.i++
		replay := b.stash[b.i%len(b.stash)]
		for _, p := range b.env.peers() {
			ctx.Send(p, replay)
		}
	}
	return true
}

// --- silent / slow owner ------------------------------------------------

// silentOwner suppresses every ordering message while behaving normally
// otherwise — a fail-silent owner that still votes. ezBFT clients must
// route around it via retry + owner rotation; the baselines must depose
// it by view change.
type silentOwner struct{ passthrough }

func (silentOwner) Outbound(_ proc.Context, _ types.NodeID, msg codec.Message) bool {
	return !isOrdering(msg)
}

// slowOwner charges extra processing time for every ordering message it
// emits, degrading latency without breaking any protocol rule.
type slowOwner struct {
	passthrough
	extra time.Duration
}

func (b slowOwner) Outbound(ctx proc.Context, _ types.NodeID, msg codec.Message) bool {
	if isOrdering(msg) {
		ctx.Charge(b.extra)
	}
	return true
}

// --- silent / flapping replier ------------------------------------------

// flappingReplier takes part in ordering and agreement like a correct
// replica and withholds what it owes the clients: every message to a client
// (silent-replier, every = 0), or all but those for one request in every
// (flapping-replier). The clients of the speculative protocols never get the
// full set of replies their fast path needs. They must not pay their
// slow-path timer for that on every request (engine.ReplyWatch), and a
// replica that answers now and then must not talk them into waiting again.
// PBFT and FaB clients need f+1 and 2f+1 replies and must not notice.
type flappingReplier struct {
	passthrough
	every uint64
	// answering records, per client, whether the request this replica last
	// sent it a timestamped reply for is one it answers: the untimestamped
	// second-phase replies (COMMITREPLY, LOCALCOMMIT) follow it.
	answering map[types.NodeID]bool
}

func (b *flappingReplier) Outbound(_ proc.Context, to types.NodeID, msg codec.Message) bool {
	if !to.IsClient() {
		return true
	}
	var ts uint64
	switch m := msg.(type) {
	case *core.SpecReply:
		ts = m.Timestamp
	case *pbft.Reply:
		ts = m.Timestamp
	case *zyzzyva.SpecResponse:
		ts = m.Timestamp
	case *fab.Reply:
		ts = m.Timestamp
	default:
		return b.answering[to]
	}
	if b.answering == nil {
		b.answering = make(map[types.NodeID]bool)
	}
	b.answering[to] = b.every > 0 && ts%b.every == 0
	return b.answering[to]
}

// --- lying catch-up responder -------------------------------------------

// lyingCatchup answers state-transfer requests with garbage snapshot
// bytes under a valid signature and a valid checkpoint proof. The
// requester must reject the transfer (a parse failure on ezBFT; on the
// sequenced protocols no honest responder's anchor agrees with it) and
// recover via other voters instead of installing corrupted state.
type lyingCatchup struct {
	passthrough
	env Env
}

func newLyingCatchup(env Env) engine.Behavior { return &lyingCatchup{env: env} }

func (b *lyingCatchup) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	switch m := msg.(type) {
	case *core.CatchupResp:
		cp := *m
		cp.Snapshot = []byte("lies")
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	case *engine.CatchupResp:
		cp := *m
		cp.Snapshot = []byte("lies")
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	}
	return true
}

// --- lying snapshot responder -------------------------------------------

// lyingSnapshotResponder is the stealthy upgrade of lyingCatchup: instead
// of garbage it serves the requester the real catch-up response with one
// flipped snapshot byte, wrapped in the genuine stable-checkpoint proof,
// consistent marks, an untouched suffix, and a fresh valid signature.
// Every per-message check passes — the proof chain is real; only the
// state bytes the proof does not pin are forged. Every protocol must
// convict the forgery through f+1 cross-validation: it disagrees with
// every honest responder, so it is excluded from the installing group and
// counted in CatchupMismatches.
type lyingSnapshotResponder struct {
	passthrough
	env Env
}

func newLyingSnapshotResponder(env Env) engine.Behavior {
	return &lyingSnapshotResponder{env: env}
}

// flipSnapshot returns a copy of the snapshot with its first byte
// inverted (or a spurious byte when the snapshot is empty) — the smallest
// forgery that still parses as plausible state.
func flipSnapshot(s []byte) []byte {
	if len(s) == 0 {
		return []byte{1}
	}
	cp := append([]byte(nil), s...)
	cp[0] ^= 0xff
	return cp
}

func (b *lyingSnapshotResponder) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	switch m := msg.(type) {
	case *core.CatchupResp:
		if m.Tail {
			// Tail responses carry per-entry evidence, not snapshots —
			// forging them is lyingCatchup's job. The wholesale response
			// is where the unpinned bytes live.
			return true
		}
		cp := *m
		cp.Snapshot = flipSnapshot(m.Snapshot)
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	case *engine.CatchupResp:
		cp := *m
		cp.Snapshot = flipSnapshot(m.Snapshot)
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	}
	return true
}

// --- forged suffix responder --------------------------------------------

// forgedSuffixResponder serves the real catch-up response with every
// command of its executed suffix altered, under a fresh valid signature and
// the genuine checkpoint proof. Its anchor and snapshot are honest, so it
// agrees with every honest response on all a quorum signed. A sequenced
// protocol's requester checks no transferred command on its own, so only
// f+1 agreement on the suffix itself keeps the forged commands from
// executing; ezBFT's suffix entries are bound to leader-signed SPECORDERs
// besides.
type forgedSuffixResponder struct {
	passthrough
	env Env
}

func newForgedSuffixResponder(env Env) engine.Behavior { return &forgedSuffixResponder{env: env} }

// forge returns a command its client never issued, under the same (client,
// timestamp).
func forge(c types.Command) types.Command {
	c.Value = append([]byte("forged:"), c.Value...)
	return c
}

func (b *forgedSuffixResponder) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	switch m := msg.(type) {
	case *core.CatchupResp:
		if len(m.Suffix) == 0 {
			return true
		}
		cp := *m
		cp.Suffix = make([]core.HistEntry, len(m.Suffix))
		for i, h := range m.Suffix {
			h.Cmd = forge(h.Cmd)
			h.Batch = slices.Clone(h.Batch)
			for j := range h.Batch {
				h.Batch[j] = forge(h.Batch[j])
			}
			cp.Suffix[i] = h
		}
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	case *engine.CatchupResp:
		if len(m.Suffix) == 0 {
			return true
		}
		cp := *m
		cp.Suffix = make([]engine.CatchupSlot, len(m.Suffix))
		for i, s := range m.Suffix {
			s.Reqs = slices.Clone(s.Reqs)
			for j := range s.Reqs {
				s.Reqs[j].Cmd = forge(s.Reqs[j].Cmd)
			}
			cp.Suffix[i] = s
		}
		cp.Sig = engine.SignBody(b.env.Auth, &cp)
		ctx.Send(to, &cp)
		return false
	}
	return true
}
