// Package fab implements Parameterized FaB Paxos (Martin & Alvisi, "Fast
// Byzantine Consensus") with t = 0 and N = 3f+1 — the configuration the
// paper's evaluation deploys on four replicas. The common case takes four
// client-visible communication steps: REQUEST (client → leader), PROPOSE
// (leader → acceptors), ACCEPT (acceptors → learners, all-to-all), and
// REPLY (learners → client) once a learner sees ⌈(N+f+1)/2⌉ = 2f+1 matching
// accepts. Clients complete on f+1 matching replies. Leader change is a
// simplified skeleton (sufficient for the paper's fault-free experiments).
package fab

import (
	"fmt"

	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
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
	// PreVerifier); part of the engine.OrderingFrame surface. Never
	// marshaled.
	codec.Verified
}

// Signature implements engine.OrderingFrame.
func (m *Propose) Signature() []byte { return m.Sig }

// RequestAt implements engine.OrderingFrame.
func (m *Propose) RequestAt(i int) (types.ClientID, engine.BodyMarshaler, []byte) {
	req := m.ReqAt(i)
	return req.Cmd.Client, req, req.Sig
}

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
	if len(m.Batch) > 0 {
		w.Uvarint(uint64(len(m.Batch)))
		for i := range m.Batch {
			m.Batch[i].MarshalTo(w)
		}
	}
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
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n == 0 || n > maxBatch-2 {
			return nil, codec.ErrOverflow
		}
		m.Batch = make([]Request, n)
		for i := range m.Batch {
			if err := decodeRequestInto(r, &m.Batch[i]); err != nil {
				return nil, err
			}
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

// ReplicaConfig configures one FaB replica (proposer + acceptor + learner).
type ReplicaConfig struct {
	Self types.ReplicaID
	N    int
	App  types.Application
	Auth auth.Authenticator
	// Costs holds virtual processing costs for simulation.
	Costs proc.Costs
	// InitialView selects the starting leader (leader = view mod N).
	InitialView uint64
	// ForwardTimeout bounds how long a backup waits for the leader to
	// propose a forwarded request before suspecting it.
	ForwardTimeout time.Duration
	// BatchSize is the maximum number of client requests the leader orders
	// per sequence number. 0 or 1 disables batching and reproduces the
	// one-slot-per-request flow exactly.
	BatchSize int
	// BatchDelay is how long an incomplete batch waits for more requests
	// before flushing (default DefaultBatchDelay; only used when
	// BatchSize > 1).
	BatchDelay time.Duration
	// CheckpointInterval enables checkpointing and log truncation every
	// this many executed sequence numbers (see checkpoint.go). 0 (the
	// default) disables the subsystem — byte-identical original flow.
	CheckpointInterval uint64
	// LogRetention keeps this many additional sequence numbers below the
	// stable checkpoint when truncating.
	LogRetention uint64
	// Mute makes the replica silent (fault injection).
	Mute bool
	// Behavior, when non-nil, intercepts every message this replica sends
	// and receives (adversarial scenario harness; see engine.Behavior).
	Behavior engine.Behavior
}

// DefaultBatchDelay is the default wait for an incomplete leader-side
// batch; it must stay far below client retry timeouts.
const DefaultBatchDelay = 2 * time.Millisecond

type slotState struct {
	seq       uint64
	cmds      []types.Command // the ordered batch, in batch order (len ≥ 1)
	digests   []types.Digest  // per-command digests
	cmdDigest types.Digest    // batch digest (the command digest when unbatched)
	havePro   bool
	accepts   map[types.ReplicaID]bool
	learned   bool
	executed  bool
	results   []types.Result
}

// Replica is one FaB replica; it implements proc.Process.
type Replica struct {
	cfg ReplicaConfig
	n   int
	f   int

	view    uint64
	nextSeq uint64
	maxExec uint64
	slots   map[uint64]*slotState
	pending map[uint64]*Propose

	byCmd      map[cmdKey]uint64
	replyCache map[cmdKey]*Reply

	// batcher accumulates verified requests the leader will order under
	// its next sequence number (BatchSize > 1).
	batcher *engine.Batcher[cmdKey, *Request]

	forwarded map[cmdKey]proc.TimerID
	timerSeq  uint64
	timerAct  map[proc.TimerID]func(ctx proc.Context)

	suspects map[uint64]map[types.ReplicaID]bool

	// Log lifecycle (checkpoint.go): checkpoints, truncation and state
	// transfer, and the per-client request window through which truncation
	// releases the per-request tables. truncated is the highest sequence
	// number freed by truncation; contiguity scans resume above it.
	life      *engine.Lifecycle
	truncated uint64
	window    *engine.RequestWindow

	// peers lists every other replica's address, precomputed for broadcasts.
	peers []types.NodeID

	stats ReplicaStats
}

type cmdKey struct {
	client types.ClientID
	ts     uint64
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	Proposed       uint64
	Accepted       uint64
	Learned        uint64
	Executed       uint64
	LeaderChanges  uint64
	DroppedInvalid uint64

	// Log-lifecycle observables (checkpointing / GC).
	Checkpoints      uint64 // stable checkpoints established
	TruncatedEntries uint64 // slots freed by truncation
	LowWaterMark     uint64 // latest stable checkpoint sequence number

	// State-transfer observables (engine.Lifecycle).
	CatchupsServed    uint64 // CATCHUP-RESP transfers served to lagging peers
	CatchupsInstalled uint64 // transfers verified and installed locally
	CatchupMismatches uint64 // responders outvoted by an installed f+1 agreement
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a FaB replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("fab: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.App == nil || cfg.Auth == nil {
		return nil, fmt.Errorf("fab: app and auth are required")
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Second
	}
	if cfg.BatchSize > maxBatch-1 {
		return nil, fmt.Errorf("fab: batch size %d exceeds maximum %d", cfg.BatchSize, maxBatch-1)
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = DefaultBatchDelay
	}
	r := &Replica{
		cfg:        cfg,
		n:          cfg.N,
		f:          faults(cfg.N),
		view:       cfg.InitialView,
		nextSeq:    1,
		slots:      make(map[uint64]*slotState),
		pending:    make(map[uint64]*Propose),
		byCmd:      make(map[cmdKey]uint64),
		replyCache: make(map[cmdKey]*Reply),
		forwarded:  make(map[cmdKey]proc.TimerID),
		timerAct:   make(map[proc.TimerID]func(ctx proc.Context)),
		suspects:   make(map[uint64]map[types.ReplicaID]bool),
	}
	r.window = engine.NewRequestWindow(r.releaseRequest)
	r.life = engine.NewLifecycle(engine.LogConfig{
		Self: cfg.Self, N: cfg.N, App: cfg.App, Auth: cfg.Auth, Costs: cfg.Costs,
		Tags: logTags, Interval: cfg.CheckpointInterval, RetryBase: 2 * cfg.ForwardTimeout,
	}, logHost{r})
	r.batcher = engine.NewBatcher[cmdKey, *Request](cfg.BatchSize, cfg.BatchDelay, r, r.flushBatch)
	for i := 0; i < cfg.N; i++ {
		if types.ReplicaID(i) != cfg.Self {
			r.peers = append(r.peers, types.ReplicaNode(types.ReplicaID(i)))
		}
	}
	return r, nil
}

// ID implements proc.Process.
func (r *Replica) ID() types.NodeID { return types.ReplicaNode(r.cfg.Self) }

// Stats returns a snapshot of the counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	ls := r.life.Stats()
	s.Checkpoints, s.LowWaterMark = ls.Checkpoints, ls.LowWaterMark
	s.CatchupsServed, s.CatchupsInstalled, s.CatchupMismatches = ls.CatchupsServed, ls.CatchupsInstalled, ls.CatchupMismatches
	s.DroppedInvalid += ls.DroppedInvalid
	return s
}

// BatcherStats returns the leader-side batch-size observables.
func (r *Replica) BatcherStats() engine.BatcherStats { return r.batcher.Stats() }

// View returns the current view.
func (r *Replica) View() uint64 { return r.view }

// MaxExecuted returns the highest contiguously executed sequence number.
func (r *Replica) MaxExecuted() uint64 { return r.maxExec }

// Init implements proc.Process. With checkpointing enabled it arms the
// STATUS anti-entropy beacon (checkpoint.go); checkpointing off keeps the
// protocol's original byte-identical flow.
func (r *Replica) Init(ctx proc.Context) {
	if r.life.Enabled() {
		r.armStatusTimer(ctx)
	}
}

// OnTimer implements proc.Process.
func (r *Replica) OnTimer(ctx proc.Context, id proc.TimerID) {
	if fn, ok := r.timerAct[id]; ok {
		delete(r.timerAct, id)
		fn(ctx)
	}
}

func (r *Replica) afterTimer(ctx proc.Context, d time.Duration, fn func(ctx proc.Context)) proc.TimerID {
	r.timerSeq++
	id := proc.TimerID(r.timerSeq)
	r.timerAct[id] = fn
	ctx.SetTimer(id, d)
	return id
}

// AfterTimer implements engine.BatchHost.
func (r *Replica) AfterTimer(ctx proc.Context, d time.Duration, fn func(ctx proc.Context)) proc.TimerID {
	return r.afterTimer(ctx, d, fn)
}

// DisarmTimer implements engine.BatchHost.
func (r *Replica) DisarmTimer(ctx proc.Context, id proc.TimerID) {
	delete(r.timerAct, id)
	ctx.CancelTimer(id)
}

func (r *Replica) send(ctx proc.Context, to types.NodeID, msg codec.Message) {
	if r.cfg.Mute {
		return
	}
	if r.cfg.Behavior != nil && !r.cfg.Behavior.Outbound(ctx, to, msg) {
		return
	}
	ctx.Send(to, msg)
}

func (r *Replica) broadcastReplicas(ctx proc.Context, msg codec.Message) {
	if r.cfg.Mute {
		return
	}
	if r.cfg.Behavior != nil {
		// Per-destination interception forfeits the encode-once fan-out;
		// acceptable on the adversarial replica only.
		for _, p := range r.peers {
			if r.cfg.Behavior.Outbound(ctx, p, msg) {
				ctx.Send(p, msg)
			}
		}
		return
	}
	// One encode serves every destination on broadcast-capable transports.
	proc.Broadcast(ctx, r.peers, msg)
}

// Receive implements proc.Process.
func (r *Replica) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	if r.cfg.Behavior != nil && !r.cfg.Behavior.Inbound(ctx, from, msg) {
		return
	}
	switch m := msg.(type) {
	case *Request:
		r.handleRequest(ctx, m)
	case *Propose:
		r.handlePropose(ctx, m)
	case *Accept:
		r.handleAccept(ctx, m)
	case *engine.Checkpoint:
		r.life.HandleCheckpoint(ctx, m)
	case *engine.CatchupReq:
		r.life.HandleCatchupReq(ctx, m)
	case *engine.CatchupResp:
		r.life.HandleCatchupResp(ctx, m)
	case *Status:
		r.handleStatus(ctx, m)
	case *Suspect:
		r.handleSuspect(ctx, m)
	case *NewLeader:
		r.handleNewLeader(ctx, m)
	default:
		r.stats.DroppedInvalid++
	}
}

func (r *Replica) handleRequest(ctx proc.Context, m *Request) {
	// The asymmetric client-signature check is charged per request; the
	// per-instance admission overhead is charged where the sequence number
	// is assigned (flushBatch), so leader-side batching amortizes it — the
	// same split cost model as ezBFT's owner-side batching. At batch size 1
	// both charges land in this same handler invocation, exactly the
	// paper's calibrated per-request admission cost.
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerifyClient(ctx)
		if err := engine.VerifyBody(r.cfg.Auth, types.ClientNode(m.Cmd.Client), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	key := cmdKey{m.Cmd.Client, m.Cmd.Timestamp}
	if cached, ok := r.replyCache[key]; ok {
		r.cfg.Costs.ChargeSign(ctx)
		r.send(ctx, types.ClientNode(m.Cmd.Client), cached)
		return
	}
	if r.window.Below(m.Cmd.Client, m.Cmd.Timestamp) {
		// Older than anything the client can still have in flight, and old
		// enough that the tables which would recognise it as executed may
		// have let it go: assigning it a sequence number (or forwarding it
		// and suspecting the leader over it) would execute it twice.
		r.stats.DroppedInvalid++
		return
	}
	if leaderOf(r.view, r.n) != r.cfg.Self {
		if _, already := r.forwarded[key]; already {
			return
		}
		r.send(ctx, types.ReplicaNode(leaderOf(r.view, r.n)), m)
		r.forwarded[key] = r.afterTimer(ctx, r.cfg.ForwardTimeout, func(ctx proc.Context) {
			if _, still := r.forwarded[key]; !still {
				return
			}
			delete(r.forwarded, key)
			r.voteSuspect(ctx)
		})
		return
	}
	if _, dup := r.byCmd[key]; dup {
		return
	}
	if r.batcher.Queued(key) {
		return // already waiting in the current batch
	}
	r.batcher.Add(ctx, key, m)
}

// flushBatch assigns the next sequence number to a batch of requests and
// broadcasts one PROPOSE — one leader signature, one wire frame — for the
// whole batch. Leadership is re-checked at flush time: a leader change
// while the batch accumulated drops the requests (the clients' retransmits
// re-drive them at the new leader).
func (r *Replica) flushBatch(ctx proc.Context, reqs []*Request) {
	if leaderOf(r.view, r.n) != r.cfg.Self {
		return
	}
	fresh := reqs[:0]
	for _, m := range reqs {
		if _, dup := r.byCmd[cmdKey{m.Cmd.Client, m.Cmd.Timestamp}]; !dup {
			fresh = append(fresh, m)
		}
	}
	if len(fresh) == 0 {
		return
	}
	seq := r.nextSeq
	r.nextSeq++
	digests := make([]types.Digest, len(fresh))
	for i, m := range fresh {
		digests[i] = m.Cmd.Digest()
	}
	// Clone, not a plain copy: a retransmitted request is one decoded value
	// shared with every replica's verifier pool on the mesh.
	pro := &Propose{View: r.view, Seq: seq, CmdDigest: engine.BatchDigest(digests), Req: fresh[0].Clone()}
	if len(fresh) > 1 {
		pro.Batch = make([]Request, len(fresh)-1)
		for i, m := range fresh[1:] {
			pro.Batch[i] = m.Clone()
		}
	}
	r.cfg.Costs.ChargeAdmitInstance(ctx)
	r.cfg.Costs.ChargeSign(ctx)
	pro.Sig = engine.SignBody(r.cfg.Auth, pro)
	r.stats.Proposed++
	r.broadcastReplicas(ctx, pro)
	r.acceptPropose(ctx, pro, digests)
}

func (r *Replica) handlePropose(ctx proc.Context, m *Propose) {
	if m.View != r.view {
		r.stats.DroppedInvalid++
		return
	}
	leader := leaderOf(r.view, r.n)
	digests := make([]types.Digest, m.BatchSize())
	if m.SigVerified() {
		// A transport-side verifier pool already checked the signatures in
		// parallel; only the digest binding below remains.
		for i := range digests {
			digests[i] = m.ReqAt(i).Cmd.Digest()
		}
	} else {
		// One leader-signature verification per batch; the embedded client
		// requests are MAC-checked (microseconds). Batching amortizes the
		// expensive check across the whole batch.
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(leader), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
		for i := range digests {
			req := m.ReqAt(i)
			if err := engine.VerifyBody(r.cfg.Auth, types.ClientNode(req.Cmd.Client), req, req.Sig); err != nil {
				r.stats.DroppedInvalid++
				return
			}
			digests[i] = req.Cmd.Digest()
		}
	}
	// The signed batch digest must bind exactly the embedded requests.
	if m.CmdDigest != engine.BatchDigest(digests) {
		r.stats.DroppedInvalid++
		return
	}
	if s, ok := r.slots[m.Seq]; ok && s.havePro {
		return
	}
	if m.Seq == r.contiguous()+1 {
		// The common case: the proposal is contiguous, so the digests
		// computed above carry straight through.
		r.acceptPropose(ctx, m, digests)
	} else {
		r.pending[m.Seq] = m
	}
	// Accept buffered proposals in sequence order so execution stays
	// contiguous.
	for {
		next, ok := r.pending[r.contiguous()+1]
		if !ok {
			break
		}
		delete(r.pending, next.Seq)
		r.acceptPropose(ctx, next, nil)
	}
}

// contiguous returns the highest seq for which a proposal has been
// accepted contiguously from the truncation point (slots at or below it
// were executed and freed by the log lifecycle).
func (r *Replica) contiguous() uint64 {
	seq := r.truncated
	for {
		s, ok := r.slots[seq+1]
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
	s, ok := r.slots[m.Seq]
	if !ok {
		s = &slotState{seq: m.Seq, accepts: make(map[types.ReplicaID]bool, r.n)}
		r.slots[m.Seq] = s
	}
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
	s.cmdDigest = m.CmdDigest
	s.cmds = make([]types.Command, m.BatchSize())
	s.digests = digests
	for i := 0; i < m.BatchSize(); i++ {
		cmd := m.ReqAt(i).Cmd
		s.cmds[i] = cmd
		key := cmdKey{cmd.Client, cmd.Timestamp}
		r.byCmd[key] = m.Seq
		if id, ok := r.forwarded[key]; ok {
			delete(r.forwarded, key)
			delete(r.timerAct, id)
		}
	}

	acc := &Accept{View: m.View, Seq: m.Seq, CmdDigest: m.CmdDigest, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	acc.Sig = engine.SignBody(r.cfg.Auth, acc)
	r.stats.Accepted++
	r.broadcastReplicas(ctx, acc)
	s.accepts[r.cfg.Self] = true
	r.checkLearned(ctx, s)
}

func (r *Replica) handleAccept(ctx proc.Context, m *Accept) {
	if m.View != r.view {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	s, ok := r.slots[m.Seq]
	if !ok {
		s = &slotState{seq: m.Seq, accepts: make(map[types.ReplicaID]bool, r.n)}
		r.slots[m.Seq] = s
	}
	if s.havePro && s.cmdDigest != m.CmdDigest {
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
	for {
		next, ok := r.slots[r.maxExec+1]
		if !ok || !next.learned || next.executed {
			return
		}
		// The whole batch executes atomically in batch order; every command
		// gets its own REPLY so each client correlates its own result.
		next.results = make([]types.Result, len(next.cmds))
		for i, cmd := range next.cmds {
			r.cfg.Costs.ChargeExecute(ctx)
			next.results[i] = r.cfg.App.Apply(cmd)
			r.window.Seen(cmd.Client, cmd.Timestamp)

			reply := &Reply{
				View:      r.view,
				Timestamp: cmd.Timestamp,
				Client:    cmd.Client,
				Replica:   r.cfg.Self,
				Result:    next.results[i],
			}
			r.cfg.Costs.ChargeSign(ctx)
			reply.Sig = engine.SignBody(r.cfg.Auth, reply)
			r.replyCache[cmdKey{cmd.Client, cmd.Timestamp}] = reply
			r.send(ctx, types.ClientNode(cmd.Client), reply)
		}
		next.executed = true
		r.maxExec = next.seq
		r.stats.Executed += uint64(len(next.cmds))
		r.life.MaybeEmit(ctx, types.Digest{})
	}
}

// --- leader change (skeleton) ---

func (r *Replica) voteSuspect(ctx proc.Context) {
	sus := &Suspect{View: r.view, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	sus.Sig = engine.SignBody(r.cfg.Auth, sus)
	r.broadcastReplicas(ctx, sus)
	r.recordSuspect(ctx, r.view, r.cfg.Self)
}

func (r *Replica) handleSuspect(ctx proc.Context, m *Suspect) {
	if m.View != r.view {
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
	votes, ok := r.suspects[view]
	if !ok {
		votes = make(map[types.ReplicaID]bool, r.f+1)
		r.suspects[view] = votes
	}
	votes[from] = true
	if len(votes) < r.f+1 || view != r.view {
		return
	}
	newView := r.view + 1
	if leaderOf(newView, r.n) == r.cfg.Self {
		nl := &NewLeader{View: newView, Replica: r.cfg.Self, MaxSeq: r.maxExec}
		r.cfg.Costs.ChargeSign(ctx)
		nl.Sig = engine.SignBody(r.cfg.Auth, nl)
		r.broadcastReplicas(ctx, nl)
		r.applyNewLeader(nl)
	}
}

func (r *Replica) handleNewLeader(ctx proc.Context, m *NewLeader) {
	if m.View <= r.view || leaderOf(m.View, r.n) != m.Replica {
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
	if m.View <= r.view {
		return
	}
	r.enterView(m.View)
	r.stats.LeaderChanges++
	if leaderOf(r.view, r.n) == r.cfg.Self && m.MaxSeq+1 > r.nextSeq {
		r.nextSeq = m.MaxSeq + 1
	}
}

// enterView moves to a later view. Requests still queued for the deposed
// leader's next batch are the old view's business, and unlearned slots are
// re-driven by client retransmission in the new view: both reset.
func (r *Replica) enterView(view uint64) {
	r.view = view
	r.batcher.Drop()
	for seq, s := range r.slots {
		if !s.executed {
			delete(r.slots, seq)
			delete(r.pending, seq)
		}
	}
	for key, id := range r.forwarded {
		delete(r.forwarded, key)
		delete(r.timerAct, id)
	}
}

// --- client ---

// ClientConfig configures a FaB client.
type ClientConfig struct {
	ID     types.ClientID
	N      int
	Leader types.ReplicaID
	Auth   auth.Authenticator
	Costs  proc.Costs
	Driver workload.Driver
	// RetryTimeout is how long to wait for f+1 matching replies before
	// retransmitting to all replicas.
	RetryTimeout time.Duration
}

// ClientStats exposes client-side counters.
type ClientStats struct {
	Submitted uint64
	Completed uint64
	Retries   uint64
}

type pendingReq struct {
	cmd     types.Command
	req     *Request
	issued  time.Duration
	replies map[types.ReplicaID]*Reply
	retries int
}

// fabEngine plugs FaB into the protocol-agnostic replication engine.
type fabEngine struct{}

var _ engine.Engine = fabEngine{}

func init() { engine.Register(fabEngine{}) }

// Protocol implements engine.Engine.
func (fabEngine) Protocol() engine.Protocol { return engine.FaB }

// NewReplica implements engine.Engine.
func (fabEngine) NewReplica(o engine.ReplicaOptions) (proc.Process, error) {
	cfg := ReplicaConfig{
		Self: o.Self, N: o.N, App: o.App, Auth: o.Auth, Costs: o.Costs,
		InitialView:        uint64(o.Primary),
		BatchSize:          o.BatchSize,
		BatchDelay:         o.BatchDelay,
		CheckpointInterval: o.CheckpointInterval,
		LogRetention:       o.LogRetention,
		Mute:               o.Mute,
		Behavior:           o.Behavior,
	}
	if o.LatencyBound > 0 {
		cfg.ForwardTimeout = 4 * o.LatencyBound
	}
	return NewReplica(cfg)
}

// NewClient implements engine.Engine.
func (fabEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	cfg := ClientConfig{
		ID: o.ID, N: o.N, Leader: o.Primary, Auth: o.Auth, Costs: o.Costs,
		Driver: o.Driver,
	}
	if o.LatencyBound > 0 {
		cfg.RetryTimeout = 8 * o.LatencyBound
	}
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	return fabClient{c}, nil
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

// fabClient adapts *Client to the engine contract.
type fabClient struct{ *Client }

var (
	_ engine.Client    = fabClient{}
	_ engine.Unwrapper = fabClient{}
)

// ClientStats implements engine.Client. FaB has a single commit path, so
// every completion counts as a slow decision.
func (c fabClient) ClientStats() engine.ClientStats {
	s := c.Client.Stats()
	return engine.ClientStats{
		Submitted:     s.Submitted,
		Completed:     s.Completed,
		SlowDecisions: s.Completed,
		Retries:       s.Retries,
	}
}

// Unwrap implements engine.Unwrapper.
func (c fabClient) Unwrap() any { return c.Client }

// Client is a FaB client; it implements proc.Process.
type Client struct {
	cfg ClientConfig
	n   int
	f   int

	nextTS  uint64
	view    uint64
	pending map[uint64]*pendingReq
	stats   ClientStats

	// replicas lists every replica's address, precomputed for broadcasts.
	replicas []types.NodeID
}

var (
	_ proc.Process       = (*Client)(nil)
	_ workload.Submitter = (*Client)(nil)
)

// NewClient constructs a FaB client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("fab: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.Auth == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("fab: auth and driver are required")
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 4 * time.Second
	}
	c := &Client{
		cfg:     cfg,
		n:       cfg.N,
		f:       faults(cfg.N),
		view:    uint64(cfg.Leader),
		pending: make(map[uint64]*pendingReq),
	}
	for i := 0; i < cfg.N; i++ {
		c.replicas = append(c.replicas, types.ReplicaNode(types.ReplicaID(i)))
	}
	return c, nil
}

// ID implements proc.Process.
func (c *Client) ID() types.NodeID { return types.ClientNode(c.cfg.ID) }

// ClientID implements workload.Submitter.
func (c *Client) ClientID() types.ClientID { return c.cfg.ID }

// InFlight implements workload.Submitter.
func (c *Client) InFlight() int { return len(c.pending) }

// Stats returns a snapshot of client counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Init implements proc.Process.
func (c *Client) Init(ctx proc.Context) { c.cfg.Driver.Start(ctx, c) }

// Submit implements workload.Submitter; it returns the timestamp assigned
// to the command.
func (c *Client) Submit(ctx proc.Context, cmd types.Command) uint64 {
	c.nextTS++
	ts := c.nextTS
	cmd.Client = c.cfg.ID
	cmd.Timestamp = ts
	req := &Request{Cmd: cmd}
	c.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(c.cfg.Auth, req)
	c.pending[ts] = &pendingReq{
		cmd:     cmd,
		req:     req,
		issued:  ctx.Now(),
		replies: make(map[types.ReplicaID]*Reply, c.n),
	}
	c.stats.Submitted++
	ctx.Send(types.ReplicaNode(leaderOf(c.view, c.n)), req)
	ctx.SetTimer(proc.TimerID(ts), c.cfg.RetryTimeout)
	return ts
}

// Receive implements proc.Process.
func (c *Client) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	m, ok := msg.(*Reply)
	if !ok {
		return
	}
	p, okp := c.pending[m.Timestamp]
	if !okp || m.Client != c.cfg.ID {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			return
		}
	}
	if m.View > c.view {
		c.view = m.View
	}
	p.replies[m.Replica] = m
	counts := make(map[string]int, 2)
	for _, rep := range p.replies {
		key := fmt.Sprintf("%t|%x", rep.Result.OK, rep.Result.Value)
		counts[key]++
		if counts[key] >= c.f+1 {
			c.finish(ctx, m.Timestamp, p, rep.Result)
			return
		}
	}
}

// OnTimer implements proc.Process.
func (c *Client) OnTimer(ctx proc.Context, id proc.TimerID) {
	if id >= workload.DriverTimerBase {
		c.cfg.Driver.OnTimer(ctx, c, id)
		return
	}
	ts := uint64(id)
	p, ok := c.pending[ts]
	if !ok {
		return
	}
	p.retries++
	c.stats.Retries++
	proc.Broadcast(ctx, c.replicas, p.req)
	shift := p.retries
	if shift > 6 {
		shift = 6
	}
	ctx.SetTimer(id, c.cfg.RetryTimeout<<uint(shift))
}

func (c *Client) finish(ctx proc.Context, ts uint64, p *pendingReq, res types.Result) {
	delete(c.pending, ts)
	ctx.CancelTimer(proc.TimerID(ts))
	c.stats.Completed++
	c.cfg.Driver.Completed(ctx, c, workload.Completion{
		Cmd:      p.cmd,
		Result:   res,
		Latency:  ctx.Now() - p.issued,
		At:       ctx.Now(),
		FastPath: false,
	})
}
