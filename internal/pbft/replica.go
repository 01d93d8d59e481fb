package pbft

import (
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

func faults(n int) int { return (n - 1) / 3 }
func quorum(n int) int { return 2*faults(n) + 1 }
func primaryOf(view uint64, n int) types.ReplicaID {
	return types.ReplicaID(view % uint64(n))
}

// DefaultCheckpointInterval is the sequence-number distance between
// checkpoints.
const DefaultCheckpointInterval = 128

// ReplicaConfig configures one PBFT replica; the fields it shares with
// engine.SeqConfig mean what they mean there.
type ReplicaConfig struct {
	Self  types.ReplicaID
	N     int
	App   types.Application
	Auth  auth.Authenticator
	Costs proc.Costs
	// InitialView selects the starting primary (primary = view mod N).
	InitialView        uint64
	ForwardTimeout     time.Duration
	CheckpointInterval uint64 // 0 = DefaultCheckpointInterval
	LogRetention       uint64
	BatchSize          int
	BatchDelay         time.Duration
	// Store, when non-nil, is the replica's durability layer (see
	// internal/store and durable.go). Nil (the default) keeps the replica
	// memoryless across restarts — byte-identical to the pre-durability
	// behaviour.
	Store    store.Store
	Mute     bool
	Behavior engine.Behavior
}

type slotState struct {
	engine.Batch          // the ordered batch, its view, frame, digests and results
	sigs         [][]byte // the client signatures, in batch order
	// prepares are the backups' PREPAREs (the primary's PRE-PREPARE counts
	// as its prepare), the certificate a VIEW-CHANGE reports.
	prepares  engine.Votes[prepareTag]
	commits   engine.Votes[commitTag]
	prepared  bool
	committed bool
}

// req returns the slot's i'th client request.
func (s *slotState) req(i int) Request { return Request{Cmd: s.Cmds[i], Sig: s.sigs[i]} }

// marshalReqs writes the slot's batch as WAL records and snapshots carry
// it: the count, then each request in its wire layout.
func (s *slotState) marshalReqs(w *codec.Writer) {
	w.Uvarint(uint64(len(s.Cmds)))
	for i := range s.Cmds {
		w.Command(s.Cmds[i])
		w.Blob(s.sigs[i])
	}
}

// decodeReqs reads what marshalReqs writes; a no-op slot has no requests.
func decodeReqs(r *codec.Reader) ([]Request, error) {
	off := r.Offset()
	if r.Uvarint() == 0 {
		return nil, r.Err()
	}
	r.Rewind(off)
	return engine.DecodeBatch(r, maxBatch, engine.DecodeRequestInto[requestTag])
}

type sequencer = engine.Sequencer[Request, *Request, *Reply, *slotState]

// Replica is one PBFT replica; it implements proc.Process. Admission,
// batching, frame checks, execution, the reply cache and the log lifecycle
// are its engine.Sequencer's, and so are the view change and the
// write-ahead log's runtime; this package adds the three phases and its
// record kinds (durable.go).
type Replica struct {
	*sequencer
	cfg engine.SeqConfig
	n   int
	f   int

	stats ReplicaStats
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	PrePrepares uint64
	Prepared    uint64
	Committed   uint64
	Executed    uint64
	engine.SeqStats
	engine.WALStats
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a PBFT replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	return newReplica(engine.SeqConfig{
		Self: cfg.Self, N: cfg.N, App: cfg.App, Auth: cfg.Auth, Costs: cfg.Costs,
		InitialView: cfg.InitialView, ForwardTimeout: cfg.ForwardTimeout,
		CheckpointInterval: cfg.CheckpointInterval, LogRetention: cfg.LogRetention,
		BatchSize: cfg.BatchSize, BatchDelay: cfg.BatchDelay, Mute: cfg.Mute, Behavior: cfg.Behavior,
	}, cfg.Store)
}

func newReplica(cfg engine.SeqConfig, st store.Store) (*Replica, error) {
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	r := &Replica{cfg: cfg, n: cfg.N, f: faults(cfg.N)}
	seq, err := engine.NewSequencer[Request, *Request, *Reply, *slotState]("pbft", &r.cfg, maxBatch, logTags, viewTags, host{r})
	if err != nil {
		return nil, err
	}
	r.sequencer = seq
	r.LogTo(st)
	return r, nil
}

// Stats returns a snapshot of counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.SeqStats = r.MergeStats(s.SeqStats)
	s.Executed += r.ExecutedCommands()
	s.WALStats = r.WALStats()
	return s
}

// Receive implements proc.Process.
func (r *Replica) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	if !r.Inbound(ctx, from, msg) {
		return
	}
	switch m := msg.(type) {
	case *Request:
		r.Admit(ctx, m)
	case *PrePrepare:
		r.handlePrePrepare(ctx, m)
	case *Prepare:
		r.handlePrepare(ctx, m)
	case *Commit:
		r.handleCommit(ctx, m)
	default:
		if !r.Route(ctx, msg) {
			r.stats.DroppedInvalid++
		}
	}
	r.Sync()
}

// host is PBFT's half of its Sequencer (engine.SeqHost, engine.ViewHost)
// and of its Lifecycle (checkpoint.go).
type host struct{ *Replica }

// Order broadcasts one PRE-PREPARE for a flushed batch.
func (h host) Order(ctx proc.Context, seq uint64, digest types.Digest, digests []types.Digest, first Request, rest []Request) {
	pp := &PrePrepare{View: h.View(), Seq: seq, CmdDigest: digest, Req: first, Batch: rest}
	pp.Sig = engine.SignBody(h.cfg.Auth, pp)
	h.stats.PrePrepares++
	// Accept (and WAL, see durable.go) before the broadcast: the primary
	// must not propose an assignment it could forget across a crash.
	h.acceptPrePrepare(ctx, pp, digests)
	h.Broadcast(ctx, pp)
}

// Reply signs the REPLY to one executed command.
func (h host) Reply(ctx proc.Context, s *slotState, i int) *Reply {
	cmd := &s.Cmds[i]
	reply := &Reply{View: s.View, Timestamp: cmd.Timestamp, Client: cmd.Client, Replica: h.cfg.Self, Result: s.Results[i]}
	h.cfg.Costs.ChargeSign(ctx)
	reply.Sig = engine.SignBody(h.cfg.Auth, reply)
	return reply
}

// committed is PBFT's execution rule: a slot executes once committed-local.
func committed(s *slotState) bool { return s.committed }

func (r *Replica) handlePrePrepare(ctx proc.Context, m *PrePrepare) {
	if m.View != r.View() || r.InVC {
		r.stats.DroppedInvalid++
		return
	}
	digests := r.CheckFrame(ctx, m, r.Primary(), m.CmdDigest)
	if digests == nil {
		return
	}
	s := r.SlotAt(m.Seq)
	if s.Accepted && s.Digest != m.CmdDigest {
		// Equivocating primary; refuse the second assignment.
		r.stats.DroppedInvalid++
		return
	}
	r.acceptPrePrepare(ctx, m, digests)
}

// acceptPrePrepare records a validated proposal; digests carries the
// per-command digests the caller already computed.
func (r *Replica) acceptPrePrepare(ctx proc.Context, m *PrePrepare, digests []types.Digest) {
	s := r.SlotAt(m.Seq)
	if s.Accepted {
		return
	}
	r.Place(s, m.View, m, m.CmdDigest, digests)
	s.sigs = make([][]byte, m.BatchSize())
	for i := range s.sigs {
		s.sigs[i] = m.ReqAt(i).Sig
	}
	r.prepare(ctx, s)
}

// prepare starts agreement on a slot accepted in its view: it logs the
// slot — a restarted replica must remember what it accepted in this view
// before its PREPARE leaves the building; a slot that executed already is
// final — drops votes that arrived first for another batch, and at a
// backup broadcasts the PREPARE.
func (r *Replica) prepare(ctx proc.Context, s *slotState) {
	if !s.Executed {
		r.walPre(s)
	}
	s.prepares.Keep(s.View, s.Digest)
	s.commits.Keep(s.View, s.Digest)
	// The primary's PRE-PREPARE counts as its prepare; backups broadcast
	// their own PREPARE.
	if primaryOf(s.View, r.n) != r.cfg.Self {
		p := &Prepare{View: s.View, Seq: s.Seq, CmdDigest: s.Digest, Replica: r.cfg.Self}
		r.cfg.Costs.ChargeSign(ctx)
		p.Sig = engine.SignBody(r.cfg.Auth, p)
		r.Broadcast(ctx, p)
		s.prepares[r.cfg.Self] = p
	}
	r.checkPrepared(ctx, s)
}

func (r *Replica) handlePrepare(ctx proc.Context, m *Prepare) {
	if !r.AdmitVote(ctx, m) || m.Replica == primaryOf(m.View, r.n) {
		return
	}
	s := r.SlotAt(m.Seq)
	if s.Accepted && s.Digest != m.CmdDigest {
		return
	}
	s.prepares[m.Replica] = m
	r.checkPrepared(ctx, s)
}

// checkPrepared: prepared(m, v, n, i) holds with the pre-prepare and 2f
// prepares from distinct backups.
func (r *Replica) checkPrepared(ctx proc.Context, s *slotState) {
	if s.prepared || !s.Accepted || s.prepares.Count() < quorum(r.n)-1 {
		return
	}
	s.prepared = true
	r.stats.Prepared++
	r.walCert(s)
	c := &Commit{View: s.View, Seq: s.Seq, CmdDigest: s.Digest, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	c.Sig = engine.SignBody(r.cfg.Auth, c)
	r.Broadcast(ctx, c)
	s.commits[r.cfg.Self] = c
	r.checkCommitted(ctx, s)
}

func (r *Replica) handleCommit(ctx proc.Context, m *Commit) {
	if !r.AdmitVote(ctx, m) {
		return
	}
	s := r.SlotAt(m.Seq)
	if s.committed || (s.Accepted && s.Digest != m.CmdDigest) {
		return
	}
	s.commits[m.Replica] = m
	r.checkCommitted(ctx, s)
}

// checkCommitted: committed-local holds with 2f+1 commits; execution is
// sequential in sequence-number order. The COMMITs are let go once counted
// (only the PREPAREs are a certificate).
func (r *Replica) checkCommitted(ctx proc.Context, s *slotState) {
	if s.committed || !s.prepared || s.commits.Count() < quorum(r.n) {
		return
	}
	clear(s.commits)
	s.committed = true
	r.stats.Committed++
	r.walCommit(s)
	r.ExecuteReady(ctx, committed)
}

// PBFT's half of the view change (engine.ViewHost).

func (h host) NewSlot(seq uint64) *slotState {
	return &slotState{
		Batch:    engine.Batch{Seq: seq},
		prepares: make(engine.Votes[prepareTag], h.n),
		commits:  make(engine.Votes[commitTag], h.n),
	}
}

// Adopt prepares and commits a slot a NEW-VIEW ordered again, in this
// view; one that executed already votes without executing twice.
func (h host) Adopt(ctx proc.Context, s *slotState) {
	if pp, ok := s.Frame.(*PrePrepare); ok && !s.Executed {
		s.sigs = make([][]byte, pp.BatchSize())
		for i := range s.sigs {
			s.sigs[i] = pp.ReqAt(i).Sig
		}
	}
	clear(s.prepares)
	clear(s.commits)
	s.prepared, s.committed = false, false
	h.prepare(ctx, s)
}

// Certificate is a prepared slot's 2f PREPAREs.
func (h host) Certificate(s *slotState) []codec.Message {
	if !s.prepared {
		return nil
	}
	return s.prepares.Cert(s.View, s.Digest, quorum(h.n)-1)
}

// CheckCert accepts 2f PREPAREs of one view's backups.
func (h host) CheckCert(ctx proc.Context, seq uint64, _ codec.Message, digest types.Digest, cert []codec.Message) bool {
	return h.CheckVotes(ctx, cert, seq, digest, 2*h.f, true)
}

// EnteredView logs the view, so a restarted backup does not return to an
// old primary.
func (h host) EnteredView(_ proc.Context, view uint64) { h.walView(view) }
