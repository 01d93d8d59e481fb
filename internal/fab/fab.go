// Package fab implements Parameterized FaB Paxos (Martin & Alvisi, "Fast
// Byzantine Consensus") with t = 0 and N = 3f+1 — the configuration the
// paper's evaluation deploys on four replicas. The common case takes four
// client-visible communication steps: REQUEST (client → leader), PROPOSE
// (leader → acceptors), ACCEPT (acceptors → learners, all-to-all), and
// REPLY (learners → client) once a learner sees ⌈(N+f+1)/2⌉ = 2f+1 matching
// accepts. Clients complete on f+1 matching replies (engine.QuorumClient).
// Leader change is a simplified skeleton (sufficient for the paper's
// fault-free experiments).
//
// A replica is an engine.Sequencer — admission, leader-side batching, the
// PROPOSE signature and batch-digest check, in-order execution with one
// REPLY per command, the reply cache and the log lifecycle — around what is
// FaB's own: the PROPOSE and ACCEPT messages, the accept quorum, the
// out-of-order proposal buffer, SUSPECT/NEW-LEADER, and the STATUS beacon
// (checkpoint.go).
package fab

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// Message tags reserved by FaB (50-59, plus 64 from the shared
// batched-baseline block 60-69; 56-58 are the log-lifecycle messages and
// 59 the STATUS beacon, in checkpoint.go).
const (
	tagRequest   = 50
	tagPropose   = 51
	tagAccept    = 52
	tagReply     = 53
	tagSuspect   = 54
	tagNewLeader = 55
	// tagProposeBatch is the PROPOSE layout for leader-side batches of ≥ 2
	// requests; batches of one keep tag 51 and its exact byte layout.
	tagProposeBatch = 64
)

// maxBatch bounds the requests decoded per batched PROPOSE.
const maxBatch = 4096

func faults(n int) int { return (n - 1) / 3 }

// acceptQuorum is ⌈(N+f+1)/2⌉, the t=0 fast quorum: 2f+1 for N=3f+1.
func acceptQuorum(n int) int { return (n + faults(n) + 2) / 2 }

func leaderOf(view uint64, n int) types.ReplicaID {
	return types.ReplicaID(view % uint64(n))
}

// --- messages ---

// Request is the client's signed command submission.
type Request struct {
	Cmd types.Command
	Sig []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Request) Tag() uint8 { return tagRequest }

// Command, Signature and SetSignature implement engine.ClientRequest.
func (m *Request) Command() *types.Command { return &m.Cmd }
func (m *Request) Signature() []byte       { return m.Sig }
func (m *Request) SetSignature(sig []byte) { m.Sig = sig }

// MarshalTo implements codec.Message.
func (m *Request) MarshalTo(w *codec.Writer) {
	w.Command(m.Cmd)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the client signature covers.
func (m *Request) MarshalBody(w *codec.Writer) {
	w.Command(m.Cmd)
}

func decodeRequest(r *codec.Reader) (*Request, error) {
	m := &Request{}
	return m, decodeRequestInto(r, m)
}

// decodeRequestInto parses a REQUEST into m, which is where messages that
// embed requests by value (ordering batches, catch-up suffixes, WAL records)
// want it.
func decodeRequestInto(r *codec.Reader, m *Request) error {
	m.Cmd = r.Command()
	m.Sig = r.Blob()
	return r.Err()
}

// Clone returns a copy safe to take while other nodes' verifier pools may
// still be marking the shared original (client retransmissions hand one
// decoded Request to every replica on the in-process mesh): the embedded
// Verified flag is re-read atomically instead of plain-copied.
func (m *Request) Clone() Request {
	cp := Request{Cmd: m.Cmd, Sig: m.Sig}
	if m.SigVerified() {
		cp.MarkSigVerified()
	}
	return cp
}

// Propose is the leader's ordering proposal. With leader-side batching it
// orders a whole batch of requests under one sequence number: Req is the
// first request and Batch carries the rest; CmdDigest is then the batch
// digest, so the one leader signature covers every command in the batch.
type Propose struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest // d = H(m) (batch digest for batches of ≥ 2)
	Req       Request
	Batch     []Request // requests 2..k of the batch (nil when unbatched)
	Sig       []byte

	// Verified marks that the leader signature and every embedded client
	// signature were checked by a transport-side verifier pool (see
	// PreVerifier); part of the engine.Frame surface. Never
	// marshaled.
	codec.Verified
}

// Signature implements engine.Frame.
func (m *Propose) Signature() []byte { return m.Sig }

// BatchSize returns the number of requests this PROPOSE orders.
func (m *Propose) BatchSize() int { return 1 + len(m.Batch) }

// ReqAt returns the i'th request of the batch (0 = Req).
func (m *Propose) ReqAt(i int) *Request {
	if i == 0 {
		return &m.Req
	}
	return &m.Batch[i-1]
}

// Tag implements codec.Message.
func (m *Propose) Tag() uint8 {
	if len(m.Batch) > 0 {
		return tagProposeBatch
	}
	return tagPropose
}

// MarshalTo implements codec.Message.
func (m *Propose) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	m.Req.MarshalTo(w)
	engine.MarshalBatch(w, m.Batch, (*Request).MarshalTo)
}

func (m *Propose) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
}

func decodePropose(r *codec.Reader) (*Propose, error) {
	return decodeProposeFmt(r, false)
}

// decodeProposeFmt parses either PROPOSE layout; batched selects the
// tag-64 layout with the trailing extra requests.
func decodeProposeFmt(r *codec.Reader, batched bool) (*Propose, error) {
	m := &Propose{View: r.Uvarint(), Seq: r.Uvarint(), CmdDigest: r.Bytes32()}
	m.Sig = r.Blob()
	if err := decodeRequestInto(r, &m.Req); err != nil {
		return nil, err
	}
	if batched {
		var err error
		if m.Batch, err = engine.DecodeBatch(r, maxBatch-2, decodeRequestInto); err != nil {
			return nil, err
		}
	}
	return m, r.Err()
}

// Accept is an acceptor's vote, broadcast to all learners.
type Accept struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest
	Replica   types.ReplicaID
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Accept) Tag() uint8 { return tagAccept }

// MarshalTo implements codec.Message.
func (m *Accept) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Accept) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Replica))
}

func decodeAccept(r *codec.Reader) (*Accept, error) {
	m := &Accept{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// Reply carries a learner's execution result to the client.
type Reply struct {
	View      uint64
	Timestamp uint64
	Client    types.ClientID
	Replica   types.ReplicaID
	Result    types.Result
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Reply) Tag() uint8 { return tagReply }

// Info implements engine.QuorumReply.
func (m *Reply) Info() engine.ReplyInfo {
	return engine.ReplyInfo{View: m.View, Timestamp: m.Timestamp, Client: m.Client, Replica: m.Replica, Result: m.Result, Sig: m.Sig}
}

// MarshalTo implements codec.Message.
func (m *Reply) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Reply) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Timestamp)
	w.Int32(int32(m.Client))
	w.Int32(int32(m.Replica))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
}

func decodeReply(r *codec.Reader) (*Reply, error) {
	m := &Reply{
		View:      r.Uvarint(),
		Timestamp: r.Uvarint(),
		Client:    types.ClientID(r.Int32()),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Result.OK = r.Bool()
	m.Result.Value = r.Blob()
	m.Sig = r.Blob()
	return m, r.Err()
}

// Suspect is a replica's vote to replace the leader.
type Suspect struct {
	View    uint64
	Replica types.ReplicaID
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Suspect) Tag() uint8 { return tagSuspect }

// MarshalTo implements codec.Message.
func (m *Suspect) MarshalTo(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the replica signature covers.
func (m *Suspect) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
}

func decodeSuspect(r *codec.Reader) (*Suspect, error) {
	m := &Suspect{View: r.Uvarint(), Replica: types.ReplicaID(r.Int32())}
	m.Sig = r.Blob()
	return m, r.Err()
}

// NewLeader announces the next view's leader with the adopted history
// bound (simplified recovery).
type NewLeader struct {
	View    uint64
	Replica types.ReplicaID
	MaxSeq  uint64
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *NewLeader) Tag() uint8 { return tagNewLeader }

// MarshalTo implements codec.Message.
func (m *NewLeader) MarshalTo(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Uvarint(m.MaxSeq)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the new leader's signature covers.
func (m *NewLeader) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Uvarint(m.MaxSeq)
}

func decodeNewLeader(r *codec.Reader) (*NewLeader, error) {
	m := &NewLeader{View: r.Uvarint(), Replica: types.ReplicaID(r.Int32()), MaxSeq: r.Uvarint()}
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	codec.Register(tagRequest, "fab.Request", func(r *codec.Reader) (codec.Message, error) { return decodeRequest(r) })
	codec.Register(tagPropose, "fab.Propose", func(r *codec.Reader) (codec.Message, error) { return decodePropose(r) })
	codec.Register(tagAccept, "fab.Accept", func(r *codec.Reader) (codec.Message, error) { return decodeAccept(r) })
	codec.Register(tagReply, "fab.Reply", func(r *codec.Reader) (codec.Message, error) { return decodeReply(r) })
	codec.Register(tagSuspect, "fab.Suspect", func(r *codec.Reader) (codec.Message, error) { return decodeSuspect(r) })
	codec.Register(tagNewLeader, "fab.NewLeader", func(r *codec.Reader) (codec.Message, error) { return decodeNewLeader(r) })
	codec.Register(tagProposeBatch, "fab.ProposeB", func(r *codec.Reader) (codec.Message, error) { return decodeProposeFmt(r, true) })
}

// --- replica ---

// ReplicaConfig configures one FaB replica (proposer + acceptor + learner);
// the primary is FaB's leader. CheckpointInterval 0 (the default) disables
// checkpointing — byte-identical original flow.
type ReplicaConfig = engine.SeqConfig

type slotState struct {
	engine.Batch
	havePro bool
	accepts map[types.ReplicaID]bool
	learned bool
}

type sequencer = engine.Sequencer[Request, *Request, *Reply, *slotState]

// Replica is one FaB replica; it implements proc.Process. Admission,
// batching, frame checks, execution, the reply cache and the log lifecycle
// are its engine.Sequencer's; this package adds the accept phase, the
// leader change and the STATUS beacon.
type Replica struct {
	*sequencer
	cfg ReplicaConfig
	n   int
	f   int

	pending  map[uint64]*Propose // out-of-order buffer
	suspects engine.Votes[bool]

	stats ReplicaStats
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	Proposed      uint64
	Accepted      uint64
	Learned       uint64
	Executed      uint64
	LeaderChanges uint64
	engine.SeqStats
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a FaB replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{
		cfg:      cfg,
		n:        cfg.N,
		f:        faults(cfg.N),
		pending:  make(map[uint64]*Propose),
		suspects: make(engine.Votes[bool]),
	}
	seq, err := engine.NewSequencer[Request, *Request, *Reply, *slotState]("fab", &r.cfg, maxBatch, logTags, host{r})
	if err != nil {
		return nil, err
	}
	r.sequencer = seq
	r.TrackVotes(r.suspects)
	return r, nil
}

// Stats returns a snapshot of the counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.SeqStats = r.MergeStats(s.SeqStats)
	s.Executed += r.ExecutedCommands()
	return s
}

// Init implements proc.Process. With checkpointing enabled it arms the
// STATUS anti-entropy beacon (checkpoint.go); checkpointing off keeps the
// protocol's original byte-identical flow.
func (r *Replica) Init(ctx proc.Context) {
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
	case *Suspect:
		r.handleSuspect(ctx, m)
	case *NewLeader:
		r.handleNewLeader(ctx, m)
	default:
		if !r.ReceiveLog(ctx, msg) {
			r.stats.DroppedInvalid++
		}
	}
}

// host is FaB's half of its Sequencer (engine.SeqHost) and of its
// Lifecycle (checkpoint.go).
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

// learned is FaB's execution rule: a slot executes once learned.
func learned(s *slotState) bool { return s.learned }

// Suspect votes to replace the leader.
func (h host) Suspect(ctx proc.Context) { h.voteSuspect(ctx) }

func (r *Replica) slot(seq uint64) *slotState {
	s, ok := r.Log[seq]
	if !ok {
		s = &slotState{Batch: engine.Batch{Seq: seq}, accepts: make(map[types.ReplicaID]bool, r.n)}
		r.Log[seq] = s
	}
	return s
}

func (r *Replica) handlePropose(ctx proc.Context, m *Propose) {
	if m.View != r.View() {
		r.stats.DroppedInvalid++
		return
	}
	digests := r.CheckFrame(ctx, m, r.Primary(), m.CmdDigest)
	if digests == nil {
		return
	}
	if s, ok := r.Log[m.Seq]; ok && s.havePro {
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
		if !ok || !s.havePro {
			return seq
		}
		seq++
	}
}

// acceptPropose records the proposal, votes ACCEPT (broadcast to all
// learners), and counts its own vote. digests carries the per-command
// digests the caller already computed (nil recomputes them — the
// out-of-order drain path).
func (r *Replica) acceptPropose(ctx proc.Context, m *Propose, digests []types.Digest) {
	s := r.slot(m.Seq)
	if s.havePro {
		return
	}
	if digests == nil {
		digests = make([]types.Digest, m.BatchSize())
		for i := range digests {
			digests[i] = m.ReqAt(i).Cmd.Digest()
		}
	}
	s.havePro = true
	s.Digest = m.CmdDigest
	s.Cmds = make([]types.Command, m.BatchSize())
	s.Digests = digests
	for i := range s.Cmds {
		s.Cmds[i] = m.ReqAt(i).Cmd
		r.Assign(&s.Cmds[i], m.Seq)
	}

	acc := &Accept{View: m.View, Seq: m.Seq, CmdDigest: m.CmdDigest, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	acc.Sig = engine.SignBody(r.cfg.Auth, acc)
	r.stats.Accepted++
	r.Broadcast(ctx, acc)
	s.accepts[r.cfg.Self] = true
	r.checkLearned(ctx, s)
}

func (r *Replica) handleAccept(ctx proc.Context, m *Accept) {
	if m.View != r.View() {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	s := r.slot(m.Seq)
	if s.havePro && s.Digest != m.CmdDigest {
		return
	}
	s.accepts[m.Replica] = true
	r.checkLearned(ctx, s)
}

// checkLearned: a learner learns the value with ⌈(N+f+1)/2⌉ matching
// accepts; execution is sequential.
func (r *Replica) checkLearned(ctx proc.Context, s *slotState) {
	if s.learned || !s.havePro || len(s.accepts) < acceptQuorum(r.n) {
		return
	}
	s.learned = true
	r.stats.Learned++
	r.ExecuteReady(ctx, learned)
}

// --- leader change (skeleton) ---

func (r *Replica) voteSuspect(ctx proc.Context) {
	sus := &Suspect{View: r.View(), Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	sus.Sig = engine.SignBody(r.cfg.Auth, sus)
	r.Broadcast(ctx, sus)
	r.recordSuspect(ctx, r.View(), r.cfg.Self)
}

func (r *Replica) handleSuspect(ctx proc.Context, m *Suspect) {
	if m.View != r.View() {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.recordSuspect(ctx, m.View, m.Replica)
}

func (r *Replica) recordSuspect(ctx proc.Context, view uint64, from types.ReplicaID) {
	votes := r.suspects.Add(view, from, true, r.f+1)
	if len(votes) < r.f+1 || view != r.View() {
		return
	}
	newView := r.View() + 1
	if leaderOf(newView, r.n) == r.cfg.Self {
		nl := &NewLeader{View: newView, Replica: r.cfg.Self, MaxSeq: r.MaxExec}
		r.cfg.Costs.ChargeSign(ctx)
		nl.Sig = engine.SignBody(r.cfg.Auth, nl)
		r.Broadcast(ctx, nl)
		r.applyNewLeader(nl)
	}
}

func (r *Replica) handleNewLeader(ctx proc.Context, m *NewLeader) {
	if m.View <= r.View() || leaderOf(m.View, r.n) != m.Replica {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.applyNewLeader(m)
}

func (r *Replica) applyNewLeader(m *NewLeader) {
	if m.View <= r.View() {
		return
	}
	r.enterView(m.View)
	r.stats.LeaderChanges++
	if r.IsPrimary() && m.MaxSeq+1 > r.NextSeq {
		r.NextSeq = m.MaxSeq + 1
	}
}

// enterView moves to a later view: besides the Sequencer's reset,
// unlearned slots are re-driven by client retransmission in the new view.
func (r *Replica) enterView(view uint64) {
	r.EnterView(view)
	for seq, s := range r.Log {
		if !s.Executed {
			delete(r.Log, seq)
			delete(r.pending, seq)
		}
	}
}

// --- client ---

// ClientConfig configures a FaB client; Primary is the leader it starts
// with.
type ClientConfig = engine.QuorumClientConfig

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
	return NewReplica(o.Sequenced())
}

// NewClient implements engine.Engine.
func (fabEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	cfg := ClientConfig{
		ID: o.ID, N: o.N, Primary: o.Primary, Auth: o.Auth, Costs: o.Costs,
		Driver: o.Driver,
	}
	if o.LatencyBound > 0 {
		cfg.RetryTimeout = 8 * o.LatencyBound
	}
	c, err := NewClient(cfg)
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
// signatures, REQUEST client signatures, ACCEPT votes, leader-change
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
		case *Suspect:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *NewLeader:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		default:
			ok, handled := engine.PreVerifyLog(a, msg)
			return ok || !handled
		}
	}
}
