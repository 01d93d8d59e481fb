// Package fab implements Parameterized FaB Paxos (Martin & Alvisi, "Fast
// Byzantine Consensus") with t = 0 and N = 3f+1 — the configuration the
// paper's evaluation deploys on four replicas. The common case takes four
// client-visible communication steps: REQUEST (client → leader), PROPOSE
// (leader → acceptors), ACCEPT (acceptors → learners, all-to-all), and
// REPLY (learners → client) once a learner sees ⌈(N+f+1)/2⌉ = 2f+1 matching
// accepts. Clients complete on f+1 matching replies (engine.QuorumClient).
//
// A replica is an engine.Sequencer — admission, leader-side batching, the
// PROPOSE signature and batch-digest check, in-order execution with one
// REPLY per command, the reply cache, the log lifecycle and the view change
// that replaces a faulty leader (internal/engine/viewchange.go) — around
// what is FaB's own: the PROPOSE and ACCEPT messages, the accept quorum
// (whose ACCEPTs are a learned slot's certificate), the out-of-order
// proposal buffer, and the STATUS beacon (checkpoint.go). A new view
// accepts every carried slot again, so a replica an equivocating leader
// left behind re-synchronises without state transfer.
package fab

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// Message tags reserved by FaB (50-59, plus 64 from the shared
// batched-baseline block 60-69; 54 and 55 are the engine's view-change
// pair, 56-58 the log-lifecycle messages and 59 the STATUS beacon, in
// checkpoint.go).
const (
	tagRequest = 50
	tagPropose = 51
	tagAccept  = 52
	tagReply   = 53
	// tagProposeBatch is the PROPOSE layout for leader-side batches of ≥ 2
	// requests; batches of one keep tag 51 and its exact byte layout.
	tagProposeBatch = 64
)

// maxBatch bounds the requests decoded per batched PROPOSE.
const maxBatch = 4096

// FaB's instances of the engine's shared message shapes.
type (
	requestTag struct{}
	acceptTag  struct{}
	replyTag   struct{}
)

func (requestTag) Tag() uint8                { return tagRequest }
func (requestTag) FrameTags() (uint8, uint8) { return tagPropose, tagProposeBatch }
func (acceptTag) Tag() uint8                 { return tagAccept }
func (replyTag) Tag() uint8                  { return tagReply }

// Request is the client's signed command submission.
type Request = engine.Request[requestTag]

// Propose is the leader's ordering proposal; a batch of ≥ 2 requests
// travels under tagProposeBatch.
type Propose = engine.Proposal[requestTag]

// Accept is an acceptor's vote, broadcast to all learners.
type Accept = engine.Vote[acceptTag]

// Reply carries a learner's execution result to the client.
type Reply = engine.Reply[replyTag]

// viewTags are FaB's view-change tags: a VIEW-CHANGE carries PROPOSEs and
// accept-quorum certificates.
var viewTags = engine.ViewTags{
	ViewChange: 54, NewView: 55,
	Frames: []uint8{tagPropose, tagProposeBatch}, Votes: []uint8{tagAccept},
}

func faults(n int) int { return (n - 1) / 3 }

// acceptQuorum is ⌈(N+f+1)/2⌉, the t=0 fast quorum: 2f+1 for N=3f+1.
func acceptQuorum(n int) int { return (n + faults(n) + 2) / 2 }

func leaderOf(view uint64, n int) types.ReplicaID {
	return types.ReplicaID(view % uint64(n))
}

func init() {
	engine.RegisterRequest[requestTag]("fab")
	engine.RegisterVote[acceptTag]("fab", "Accept")
	engine.RegisterReply[replyTag]("fab")
	engine.RegisterProposal[requestTag]("fab", "Propose", maxBatch)
	engine.RegisterViewMessages("fab", viewTags, logTags.Checkpoint)
}

// --- replica ---

// ReplicaConfig configures one FaB replica (proposer + acceptor + learner);
// the primary is FaB's leader. CheckpointInterval 0 (the default) disables
// checkpointing — byte-identical original flow.
type ReplicaConfig = engine.SeqConfig

// slotState is one slot: the ordered batch (Final once learned) and its
// ACCEPTs, a learned slot's certificate.
type slotState struct {
	engine.Batch
	accepts engine.Votes[acceptTag]
}

type sequencer = engine.Sequencer[Request, *Request, *Reply, *slotState]

// Replica is one FaB replica; it implements proc.Process. Admission,
// batching, frame checks, execution, the reply cache and the log lifecycle
// are its engine.Sequencer's, and so are the view change and the
// write-ahead log; this package adds the accept phase and the STATUS
// beacon.
type Replica struct {
	*sequencer
	cfg ReplicaConfig
	n   int

	pending map[uint64]*Propose // out-of-order buffer

	stats ReplicaStats
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	Proposed uint64
	Accepted uint64
	Learned  uint64
	Executed uint64
	engine.SeqStats
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a FaB replica; LogTo attaches its write-ahead log.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{cfg: cfg, n: cfg.N, pending: make(map[uint64]*Propose)}
	seq, err := engine.NewSequencer[Request, *Request, *Reply, *slotState]("fab", &r.cfg, maxBatch, logTags, viewTags, host{r})
	if err != nil {
		return nil, err
	}
	r.sequencer = seq
	return r, nil
}

// Stats returns a snapshot of the counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.SeqStats = r.MergeStats(s.SeqStats)
	s.Executed += r.ExecutedCommands()
	return s
}

// Init implements proc.Process: it recovers from the replica's store, if
// it has one (engine.Sequencer.Init), and with checkpointing enabled arms
// the STATUS anti-entropy beacon (checkpoint.go); checkpointing off keeps
// the protocol's original byte-identical flow.
func (r *Replica) Init(ctx proc.Context) {
	r.sequencer.Init(ctx)
	if r.Life().Enabled() {
		r.armStatusTimer(ctx)
	}
}

// Receive implements proc.Process.
func (r *Replica) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	if !r.Inbound(ctx, from, msg) {
		return
	}
	switch m := msg.(type) {
	case *Request:
		r.Admit(ctx, m)
	case *Propose:
		r.handlePropose(ctx, m)
	case *Accept:
		r.handleAccept(ctx, m)
	case *Status:
		r.handleStatus(ctx, m)
	default:
		if !r.Route(ctx, msg) {
			r.stats.DroppedInvalid++
		}
	}
	r.Sync()
}

// host is FaB's half of its Sequencer (engine.SeqHost, engine.ViewHost) and
// of its Lifecycle (checkpoint.go).
type host struct{ *Replica }

// Order broadcasts one PROPOSE — one leader signature, one wire frame —
// for a flushed batch.
func (h host) Order(ctx proc.Context, seq uint64, digest types.Digest, digests []types.Digest, first Request, rest []Request) {
	pro := &Propose{View: h.View(), Seq: seq, CmdDigest: digest, Req: first, Batch: rest}
	pro.Sig = engine.SignBody(h.cfg.Auth, pro)
	h.stats.Proposed++
	h.Broadcast(ctx, pro)
	h.acceptPropose(ctx, pro, digests)
}

// Reply signs a learner's REPLY to one executed command.
func (h host) Reply(ctx proc.Context, s *slotState, i int) *Reply {
	cmd := &s.Cmds[i]
	reply := &Reply{View: h.View(), Timestamp: cmd.Timestamp, Client: cmd.Client, Replica: h.cfg.Self, Result: s.Results[i]}
	h.cfg.Costs.ChargeSign(ctx)
	reply.Sig = engine.SignBody(h.cfg.Auth, reply)
	return reply
}

// Ready executes the learned slots in order.
func (h host) Ready(ctx proc.Context) { h.ExecuteReady(ctx) }

func (r *Replica) handlePropose(ctx proc.Context, m *Propose) {
	if m.View != r.View() || r.InVC {
		r.stats.DroppedInvalid++
		return
	}
	digests := r.CheckFrame(ctx, m, r.Primary(), m.CmdDigest)
	if digests == nil {
		return
	}
	if s, ok := r.Log[m.Seq]; ok && s.Accepted {
		return
	}
	if m.Seq == r.contiguous()+1 {
		// The common case: the proposal is contiguous, so the digests
		// computed above carry straight through.
		r.acceptPropose(ctx, m, digests)
	} else {
		r.pending[m.Seq] = m
	}
	r.drain(ctx)
}

// drain accepts buffered proposals in sequence order so execution stays
// contiguous.
func (r *Replica) drain(ctx proc.Context) {
	for {
		next, ok := r.pending[r.contiguous()+1]
		if !ok {
			return
		}
		delete(r.pending, next.Seq)
		r.acceptPropose(ctx, next, nil)
	}
}

// contiguous returns the highest seq for which a proposal has been
// accepted contiguously from the truncation point (slots at or below it
// were executed and freed by the log lifecycle).
func (r *Replica) contiguous() uint64 {
	seq := r.Truncated()
	for {
		s, ok := r.Log[seq+1]
		if !ok || !s.Accepted {
			return seq
		}
		seq++
	}
}

// acceptPropose records the proposal and accepts it. digests carries the
// per-command digests the caller already computed (nil recomputes them —
// the out-of-order drain path).
func (r *Replica) acceptPropose(ctx proc.Context, m *Propose, digests []types.Digest) {
	s := r.SlotAt(m.Seq)
	if s.Accepted {
		return
	}
	r.Place(s, m.View, m, m.CmdDigest, digests)
	r.accept(ctx, s)
}

// accept votes ACCEPT for a slot accepted in its view (broadcast to all
// learners) and counts its own vote; ACCEPTs that arrived first for another
// batch are dropped.
func (r *Replica) accept(ctx proc.Context, s *slotState) {
	s.accepts.Keep(s.View, s.Digest)
	acc := &Accept{View: s.View, Seq: s.Seq, CmdDigest: s.Digest, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	acc.Sig = engine.SignBody(r.cfg.Auth, acc)
	r.stats.Accepted++
	r.Broadcast(ctx, acc)
	s.accepts[r.cfg.Self] = acc
	r.checkLearned(ctx, s)
}

func (r *Replica) handleAccept(ctx proc.Context, m *Accept) {
	if !r.AdmitVote(ctx, m) {
		return
	}
	s := r.SlotAt(m.Seq)
	if s.Accepted && s.Digest != m.CmdDigest {
		return
	}
	s.accepts[m.Replica] = m
	r.checkLearned(ctx, s)
}

// checkLearned: a learner learns the value with ⌈(N+f+1)/2⌉ matching
// accepts; execution is sequential.
func (r *Replica) checkLearned(ctx proc.Context, s *slotState) {
	if s.Final || !s.Accepted || s.accepts.Count() < acceptQuorum(r.n) {
		return
	}
	r.stats.Learned++
	r.Finalize(ctx, s)
}

// FaB's half of the view change (engine.ViewHost).

func (h host) NewSlot(seq uint64) *slotState {
	return &slotState{Batch: engine.Batch{Seq: seq}, accepts: make(engine.Votes[acceptTag], h.n)}
}

// Adopt accepts a slot a NEW-VIEW ordered again, in this view; one that
// executed already votes without executing twice.
func (h host) Adopt(ctx proc.Context, s *slotState) {
	clear(s.accepts)
	s.Final = false
	h.accept(ctx, s)
}

// Certificate is a learned slot's accept quorum.
func (h host) Certificate(s *slotState) []codec.Message {
	if !s.Final {
		return nil
	}
	return s.accepts.Cert(s.View, s.Digest, acceptQuorum(h.n))
}

// CheckCert accepts ⌈(N+f+1)/2⌉ ACCEPTs of one view.
func (h host) CheckCert(ctx proc.Context, seq uint64, _ codec.Message, digest types.Digest, cert []codec.Message) bool {
	return h.CheckVotes(ctx, cert, seq, digest, acceptQuorum(h.n), false)
}

// EnteredView forgets the out-of-order buffer: the old view's proposals
// are the new view's to make again.
func (h host) EnteredView(proc.Context, uint64) { clear(h.pending) }

// --- client ---

// ClientConfig configures a FaB client; Leader is the leader it starts
// with.
type ClientConfig = engine.ClientConfig

// Client is a FaB client: it sends each request to the leader and accepts
// a result backed by f+1 matching replies.
type Client = engine.QuorumClient[Request, *Request, *Reply]

// NewClient constructs a FaB client.
func NewClient(cfg ClientConfig) (*Client, error) {
	return engine.NewQuorumClient[Request, *Request, *Reply]("fab", cfg)
}

// fabEngine plugs FaB into the protocol-agnostic replication engine.
type fabEngine struct{}

var _ engine.Engine = fabEngine{}

func init() { engine.Register(fabEngine{}) }

// Protocol implements engine.Engine.
func (fabEngine) Protocol() engine.Protocol { return engine.FaB }

// NewReplica implements engine.Engine.
func (fabEngine) NewReplica(o engine.ReplicaOptions) (proc.Process, error) {
	r, err := NewReplica(o.Sequenced())
	if err != nil {
		return nil, err
	}
	r.LogTo(o.Store)
	return r, nil
}

// NewClient implements engine.Engine.
func (fabEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	c, err := NewClient(o.Config())
	if err != nil {
		return nil, err
	}
	return c, nil
}

// InboundVerifier implements engine.Engine: every signed FaB message
// verifies on the transport worker pool.
func (fabEngine) InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return PreVerifier(a, n)
}

// PreVerifier returns the transport-side verification predicate for a FaB
// node (replica or client) in a cluster of n: every signature the process
// loop checks unconditionally — the PROPOSE leader + embedded client
// signatures, REQUEST client signatures, ACCEPT votes, view-change
// traffic, and REPLY learner signatures at clients — is checked on the
// pool workers and the message marked, so the loop skips re-verifying it;
// unknown message types pass through untouched. Safe for concurrent use.
func PreVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return func(msg codec.Message) bool {
		switch m := msg.(type) {
		case *Request:
			return engine.VerifySigned(a, types.ClientNode(m.Cmd.Client), m, m.Sig)
		case *Propose:
			return engine.VerifyFrame(a, types.ReplicaNode(leaderOf(m.View, n)), m, maxBatch-1)
		case *Accept:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *Status:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *Reply:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		default:
			ok, handled := engine.PreVerifyShared(a, msg)
			return ok || !handled
		}
	}
}
