package zyzzyva

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// Quorum sizes (n = 3f+1).
func faults(n int) int     { return (n - 1) / 3 }
func fastQuorum(n int) int { return n }
func commQuorum(n int) int { return 2*faults(n) + 1 }
func primaryOf(view uint64, n int) types.ReplicaID {
	return types.ReplicaID(view % uint64(n))
}

// ReplicaConfig configures one Zyzzyva replica.
type ReplicaConfig struct {
	Self types.ReplicaID
	N    int
	// App executes commands; Zyzzyva executes speculatively in sequence
	// order (rollback happens only across view changes, which re-propose
	// the same suffix, so the state is applied directly).
	App types.Application
	// Auth signs and verifies messages.
	Auth auth.Authenticator
	// Costs holds virtual processing costs for simulation.
	Costs proc.Costs
	// InitialView selects the starting primary (primary = view mod N);
	// the paper's experiments place the primary in different regions.
	InitialView uint64
	// ForwardTimeout bounds how long a replica waits for the primary to
	// order a forwarded request before voting to depose it.
	ForwardTimeout time.Duration
	// BatchSize is the maximum number of client requests the primary
	// orders per sequence number. 0 or 1 disables batching and reproduces
	// the paper's one-assignment-per-request flow exactly.
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

// DefaultBatchDelay is the default wait for an incomplete primary-side
// batch; it must stay far below client retry timeouts.
const DefaultBatchDelay = 2 * time.Millisecond

// logEntry is one ordered slot (a whole batch of commands with primary-side
// batching; the history hash chains the batch digest).
type logEntry struct {
	seq       uint64
	cmds      []types.Command // the ordered batch, in batch order (len ≥ 1)
	digests   []types.Digest  // per-command digests
	cmdDigest types.Digest    // batch digest (the command digest when unbatched)
	histHash  types.Digest
	results   []types.Result
	executed  bool
	committed bool
}

// Replica is one Zyzzyva replica; it implements proc.Process.
type Replica struct {
	cfg ReplicaConfig
	n   int
	f   int

	view     uint64
	nextSeq  uint64 // primary only: next sequence number to assign
	maxSeq   uint64 // highest contiguous executed sequence number
	histHash types.Digest
	log      map[uint64]*logEntry
	pending  map[uint64]*OrderReq // out-of-order buffer

	// byCmd provides exactly-once semantics and reply retransmission.
	byCmd      map[cmdKey]uint64
	replyCache map[cmdKey]*SpecResponse

	// batcher accumulates verified requests the primary will order under
	// its next sequence number (BatchSize > 1).
	batcher *engine.Batcher[cmdKey, *Request]

	// forwarded tracks requests relayed to the primary (awaiting ORDERREQ).
	forwarded map[cmdKey]proc.TimerID
	timerSeq  uint64
	timerAct  map[proc.TimerID]func(ctx proc.Context)

	// Log lifecycle (checkpoint.go): checkpoints, truncation and state
	// transfer, and the per-client request window through which truncation
	// releases the per-request tables.
	life   *engine.Lifecycle
	window *engine.RequestWindow

	// view change state
	hateVotes map[uint64]map[types.ReplicaID]bool
	vcMsgs    map[uint64]map[types.ReplicaID]*ViewChange
	inVC      bool

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
	Ordered        uint64
	SpecExecuted   uint64
	LocalCommits   uint64
	ViewChanges    uint64
	DroppedInvalid uint64

	// Log-lifecycle observables (checkpointing / GC).
	Checkpoints      uint64 // stable checkpoints established
	TruncatedEntries uint64 // slots freed by truncation
	LowWaterMark     uint64 // latest stable checkpoint sequence number

	// State-transfer observables (engine.Lifecycle).
	CatchupsServed    uint64 // CATCHUP-RESPs served to lagging peers
	CatchupsInstalled uint64 // state transfers verified and installed
	CatchupMismatches uint64 // responders outvoted by an installed f+1 agreement
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a Zyzzyva replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("zyzzyva: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.App == nil || cfg.Auth == nil {
		return nil, fmt.Errorf("zyzzyva: app and auth are required")
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Second
	}
	if cfg.BatchSize > maxBatch-1 {
		return nil, fmt.Errorf("zyzzyva: batch size %d exceeds maximum %d", cfg.BatchSize, maxBatch-1)
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
		log:        make(map[uint64]*logEntry),
		pending:    make(map[uint64]*OrderReq),
		byCmd:      make(map[cmdKey]uint64),
		replyCache: make(map[cmdKey]*SpecResponse),
		forwarded:  make(map[cmdKey]proc.TimerID),
		timerAct:   make(map[proc.TimerID]func(ctx proc.Context)),
		hateVotes:  make(map[uint64]map[types.ReplicaID]bool),
		vcMsgs:     make(map[uint64]map[types.ReplicaID]*ViewChange),
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

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	ls := r.life.Stats()
	s.Checkpoints, s.LowWaterMark = ls.Checkpoints, ls.LowWaterMark
	s.CatchupsServed, s.CatchupsInstalled, s.CatchupMismatches = ls.CatchupsServed, ls.CatchupsInstalled, ls.CatchupMismatches
	s.DroppedInvalid += ls.DroppedInvalid
	return s
}

// BatcherStats returns the primary-side batch-size observables.
func (r *Replica) BatcherStats() engine.BatcherStats { return r.batcher.Stats() }

// View returns the current view number (inspection helper).
func (r *Replica) View() uint64 { return r.view }

// MaxExecuted returns the highest contiguously executed sequence number.
func (r *Replica) MaxExecuted() uint64 { return r.maxSeq }

// Init implements proc.Process.
func (r *Replica) Init(proc.Context) {}

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
		r.handleRequest(ctx, from, m)
	case *OrderReq:
		r.handleOrderReq(ctx, m)
	case *CommitCert:
		r.handleCommitCert(ctx, m)
	case *engine.Checkpoint:
		r.life.HandleCheckpoint(ctx, m)
	case *engine.CatchupReq:
		r.life.HandleCatchupReq(ctx, m)
	case *engine.CatchupResp:
		r.life.HandleCatchupResp(ctx, m)
	case *HatePrimary:
		r.handleHatePrimary(ctx, m)
	case *ViewChange:
		r.handleViewChange(ctx, m)
	case *NewView:
		r.handleNewView(ctx, m)
	default:
		r.stats.DroppedInvalid++
	}
}

// handleRequest: the primary orders the request; a backup either resends
// its cached response or forwards the request to the primary and waits.
func (r *Replica) handleRequest(ctx proc.Context, from types.NodeID, m *Request) {
	// The asymmetric client-signature check is charged per request; the
	// per-instance admission overhead is charged where the sequence number
	// is assigned (flushBatch), so primary-side batching amortizes it — the
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
	if cached, ok := r.replyCache[key]; ok && cached.View == r.view {
		r.cfg.Costs.ChargeSign(ctx)
		r.send(ctx, types.ClientNode(m.Cmd.Client), cached)
		return
	}
	// Either the cached response predates a view change (SPECRESPONSEs
	// only match within one view, so a stale copy can never complete the
	// client's quorum) or the entry was adopted from a NEW-VIEW without
	// ever being answered. Rebuild the response from the log at the
	// current view so every honest replica serves a matching copy.
	if sr := r.rebuildReply(ctx, key); sr != nil {
		r.send(ctx, types.ClientNode(m.Cmd.Client), sr)
		return
	}
	if r.window.Below(m.Cmd.Client, m.Cmd.Timestamp) {
		// Older than anything the client can still have in flight, and old
		// enough that the tables which would recognise it as executed may
		// have let it go: assigning it a sequence number (or forwarding it
		// and suspecting the primary over it) would execute it twice.
		r.stats.DroppedInvalid++
		return
	}
	if primaryOf(r.view, r.n) != r.cfg.Self {
		// Forward to the primary; if it fails to order the request in
		// time, vote to depose it.
		if _, already := r.forwarded[key]; already || r.inVC {
			return
		}
		r.send(ctx, types.ReplicaNode(primaryOf(r.view, r.n)), m)
		r.forwarded[key] = r.afterTimer(ctx, r.cfg.ForwardTimeout, func(ctx proc.Context) {
			if _, still := r.forwarded[key]; !still {
				return
			}
			delete(r.forwarded, key)
			r.voteHatePrimary(ctx)
		})
		return
	}
	if _, dup := r.byCmd[key]; dup {
		return // already assigned a sequence number
	}
	if r.batcher.Queued(key) {
		return // already waiting in the current batch
	}
	r.batcher.Add(ctx, key, m)
}

// flushBatch assigns the next sequence number to a batch of requests and
// broadcasts one ORDERREQ — one primary signature, one wire frame, one
// history-chain link — for the whole batch. Primaryship is re-checked at
// flush time: a view change while the batch accumulated drops the requests
// (the clients' retransmits re-drive them at the new primary).
func (r *Replica) flushBatch(ctx proc.Context, reqs []*Request) {
	if primaryOf(r.view, r.n) != r.cfg.Self {
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
	batchDigest := engine.BatchDigest(digests)
	// Clone, not a plain copy: a retransmitted request is one decoded value
	// shared with every replica's verifier pool on the mesh.
	or := &OrderReq{
		View:      r.view,
		Seq:       seq,
		HistHash:  chainHash(r.histHashAt(seq-1), batchDigest),
		CmdDigest: batchDigest,
		Req:       fresh[0].Clone(),
	}
	if len(fresh) > 1 {
		or.Batch = make([]Request, len(fresh)-1)
		for i, m := range fresh[1:] {
			or.Batch[i] = m.Clone()
		}
	}
	r.cfg.Costs.ChargeAdmitInstance(ctx)
	r.cfg.Costs.ChargeSign(ctx)
	or.Sig = engine.SignBody(r.cfg.Auth, or)
	r.stats.Ordered += uint64(len(fresh))
	r.broadcastReplicas(ctx, or)
	r.acceptOrderReq(ctx, or, digests)
}

// histHashAt returns the chained history hash up to seq.
func (r *Replica) histHashAt(seq uint64) types.Digest {
	if seq == 0 {
		return types.Digest{}
	}
	if e, ok := r.log[seq]; ok {
		return e.histHash
	}
	return r.histHash
}

func chainHash(prev, d types.Digest) types.Digest {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(d[:])
	var out types.Digest
	copy(out[:], h.Sum(nil))
	return out
}

// handleOrderReq validates the primary's assignment; out-of-order
// assignments are buffered so execution stays sequential.
func (r *Replica) handleOrderReq(ctx proc.Context, m *OrderReq) {
	if m.View != r.view || r.inVC {
		r.stats.DroppedInvalid++
		return
	}
	primary := primaryOf(r.view, r.n)
	digests := make([]types.Digest, m.BatchSize())
	if m.SigVerified() {
		// A transport-side verifier pool already checked the signatures in
		// parallel; only the digest binding below remains.
		for i := range digests {
			digests[i] = m.ReqAt(i).Cmd.Digest()
		}
	} else {
		// One replica-signature verification per batch; the embedded client
		// requests are MAC-checked (microseconds). Batching amortizes the
		// expensive check across the whole batch.
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(primary), m, m.Sig); err != nil {
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
	if _, dup := r.log[m.Seq]; dup {
		return
	}
	if m.Seq == r.maxSeq+1 {
		// The common case: the assignment is contiguous, so the digests
		// computed above carry straight through.
		r.acceptOrderReq(ctx, m, digests)
	} else {
		r.pending[m.Seq] = m
	}
	for {
		next, ok := r.pending[r.maxSeq+1]
		if !ok {
			break
		}
		delete(r.pending, r.maxSeq+1)
		r.acceptOrderReq(ctx, next, nil)
	}
}

// acceptOrderReq speculatively executes one contiguous assignment — the
// whole batch, in batch order — and answers every client with its own
// SPECRESPONSE. digests carries the per-command digests the caller already
// computed (nil recomputes them — the out-of-order drain path).
func (r *Replica) acceptOrderReq(ctx proc.Context, m *OrderReq, digests []types.Digest) {
	// Verify the history chain: a faulty primary that diverges produces a
	// mismatched hash, which surfaces as unequal responses at the client.
	want := chainHash(r.histHashAt(m.Seq-1), m.CmdDigest)
	if m.HistHash != want {
		r.stats.DroppedInvalid++
		return
	}
	if digests == nil {
		digests = make([]types.Digest, m.BatchSize())
		for i := range digests {
			digests[i] = m.ReqAt(i).Cmd.Digest()
		}
	}
	batched := m.BatchSize() > 1
	e := &logEntry{
		seq:       m.Seq,
		cmds:      make([]types.Command, m.BatchSize()),
		digests:   digests,
		cmdDigest: m.CmdDigest,
		histHash:  m.HistHash,
		results:   make([]types.Result, m.BatchSize()),
	}
	r.log[m.Seq] = e
	r.maxSeq = m.Seq
	r.histHash = m.HistHash
	for i := 0; i < m.BatchSize(); i++ {
		cmd := m.ReqAt(i).Cmd
		key := cmdKey{cmd.Client, cmd.Timestamp}
		r.cfg.Costs.ChargeExecute(ctx)
		res := r.cfg.App.Apply(cmd)
		e.cmds[i] = cmd
		e.results[i] = res
		r.byCmd[key] = m.Seq
		r.window.Seen(cmd.Client, cmd.Timestamp)
		r.stats.SpecExecuted++

		sr := &SpecResponse{
			View:      m.View,
			Seq:       m.Seq,
			HistHash:  m.HistHash,
			CmdDigest: e.digests[i],
			Client:    cmd.Client,
			Timestamp: cmd.Timestamp,
			Replica:   r.cfg.Self,
			Result:    res,
			Batched:   batched,
			BatchIdx:  uint32(i),
		}
		r.cfg.Costs.ChargeSign(ctx)
		sr.Sig = engine.SignBody(r.cfg.Auth, sr)
		r.replyCache[key] = sr
		r.send(ctx, types.ClientNode(sr.Client), sr)

		// The ORDERREQ doubles as evidence the primary is alive.
		if id, ok := r.forwarded[key]; ok {
			delete(r.forwarded, key)
			delete(r.timerAct, id)
		}
	}
	e.executed = true
	r.life.MaybeEmit(ctx, r.histHash)
}

// rebuildReply re-signs a SPECRESPONSE for an already-executed command at
// the current view. Entries adopted from a NEW-VIEW were executed without
// answering their clients, and responses cached before a view change carry
// the old view number — in both cases the log entry holds everything
// needed to serve a fresh, current-view response. Returns nil when the
// command is unknown or its entry has been truncated.
func (r *Replica) rebuildReply(ctx proc.Context, key cmdKey) *SpecResponse {
	seq, ok := r.byCmd[key]
	if !ok {
		return nil
	}
	e := r.log[seq]
	if e == nil || !e.executed {
		return nil
	}
	for i, cmd := range e.cmds {
		if cmd.Client != key.client || cmd.Timestamp != key.ts {
			continue
		}
		sr := &SpecResponse{
			View:      r.view,
			Seq:       e.seq,
			HistHash:  e.histHash,
			CmdDigest: e.digests[i],
			Client:    cmd.Client,
			Timestamp: cmd.Timestamp,
			Replica:   r.cfg.Self,
			Result:    e.results[i],
			Batched:   len(e.cmds) > 1,
			BatchIdx:  uint32(i),
		}
		r.cfg.Costs.ChargeSign(ctx)
		sr.Sig = engine.SignBody(r.cfg.Auth, sr)
		r.replyCache[key] = sr
		return sr
	}
	return nil
}

// handleCommitCert validates the client's 2f+1 certificate and
// acknowledges with a LOCALCOMMIT.
func (r *Replica) handleCommitCert(ctx proc.Context, m *CommitCert) {
	if len(m.Cert) < commQuorum(r.n) {
		r.stats.DroppedInvalid++
		return
	}
	// MAC-authenticated certificate: charge one verification.
	r.cfg.Costs.ChargeVerify(ctx, 1)
	seen := make(map[types.ReplicaID]bool, len(m.Cert))
	for _, sr := range m.Cert {
		if sr.Seq != m.Seq || sr.CmdDigest != m.CmdDigest || seen[sr.Replica] || !sr.Matches(m.Cert[0]) {
			r.stats.DroppedInvalid++
			return
		}
		if !sr.SigVerified() {
			if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(sr.Replica), sr, sr.Sig); err != nil {
				r.stats.DroppedInvalid++
				return
			}
		}
		seen[sr.Replica] = true
	}
	e, ok := r.log[m.Seq]
	if !ok {
		if m.Seq <= r.life.Mark() {
			// The slot was truncated — meaning it executed under a stable
			// checkpoint, a strictly stronger durability guarantee than a
			// local commit. Acknowledge from the reply cache so a client
			// whose certificate raced log truncation can still finish.
			if sr, ok := r.replyCache[cmdKey{m.Client, m.Timestamp}]; ok && sr.CmdDigest == m.CmdDigest {
				lc := &LocalCommit{
					View:      r.view,
					Seq:       m.Seq,
					CmdDigest: m.CmdDigest,
					Replica:   r.cfg.Self,
					Result:    sr.Result,
				}
				r.cfg.Costs.ChargeSign(ctx)
				lc.Sig = engine.SignBody(r.cfg.Auth, lc)
				r.stats.LocalCommits++
				r.send(ctx, types.ClientNode(m.Client), lc)
			}
			return
		}
		// We have not executed this sequence number yet; the certificate
		// proves the order, but without the ORDERREQ we cannot execute.
		// The client's retransmission machinery will re-drive it.
		return
	}
	// Locate the certificate's command inside the (possibly batched)
	// assignment: the batch position is signed into every response.
	idx := int(m.Cert[0].BatchIdx)
	if idx >= len(e.cmds) || e.digests[idx] != m.CmdDigest {
		return
	}
	e.committed = true
	lc := &LocalCommit{
		View:      r.view,
		Seq:       m.Seq,
		CmdDigest: m.CmdDigest,
		Replica:   r.cfg.Self,
		Result:    e.results[idx],
	}
	r.cfg.Costs.ChargeSign(ctx)
	lc.Sig = engine.SignBody(r.cfg.Auth, lc)
	r.stats.LocalCommits++
	r.send(ctx, types.ClientNode(m.Client), lc)
}

// --- view change (skeleton) ---

func (r *Replica) voteHatePrimary(ctx proc.Context) {
	if r.inVC {
		return
	}
	hp := &HatePrimary{View: r.view, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	hp.Sig = engine.SignBody(r.cfg.Auth, hp)
	r.broadcastReplicas(ctx, hp)
	r.recordHate(ctx, r.view, r.cfg.Self)
}

func (r *Replica) handleHatePrimary(ctx proc.Context, m *HatePrimary) {
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
	r.recordHate(ctx, m.View, m.Replica)
}

func (r *Replica) recordHate(ctx proc.Context, view uint64, from types.ReplicaID) {
	votes, ok := r.hateVotes[view]
	if !ok {
		votes = make(map[types.ReplicaID]bool, r.f+1)
		r.hateVotes[view] = votes
	}
	votes[from] = true
	if len(votes) < r.f+1 || r.inVC {
		return
	}
	// f+1 votes prove at least one correct replica suspects the primary:
	// move to the next view.
	r.inVC = true
	newView := r.view + 1
	vc := &ViewChange{NewView: newView, Replica: r.cfg.Self, MaxSeq: r.maxSeq}
	seqs := make([]uint64, 0, len(r.log))
	for seq := range r.log {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		e := r.log[seq]
		entry := VCEntry{
			Seq: seq, CmdDigest: e.cmdDigest, Cmd: e.cmds[0], Committed: e.committed,
		}
		if len(e.cmds) > 1 {
			// Batched assignments are reported whole so a view change can
			// never split a batch.
			entry.Extra = append([]types.Command(nil), e.cmds[1:]...)
		}
		vc.Entries = append(vc.Entries, entry)
	}
	r.cfg.Costs.ChargeSign(ctx)
	vc.Sig = engine.SignBody(r.cfg.Auth, vc)
	newPrimary := primaryOf(newView, r.n)
	if newPrimary == r.cfg.Self {
		r.acceptViewChange(ctx, vc)
	} else {
		r.send(ctx, types.ReplicaNode(newPrimary), vc)
	}
	// Amplify the vote so every correct replica joins.
	hp := &HatePrimary{View: r.view, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	hp.Sig = engine.SignBody(r.cfg.Auth, hp)
	r.broadcastReplicas(ctx, hp)
}

func (r *Replica) handleViewChange(ctx proc.Context, m *ViewChange) {
	if m.NewView != r.view+1 || primaryOf(m.NewView, r.n) != r.cfg.Self {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.acceptViewChange(ctx, m)
}

func (r *Replica) acceptViewChange(ctx proc.Context, m *ViewChange) {
	g, ok := r.vcMsgs[m.NewView]
	if !ok {
		g = make(map[types.ReplicaID]*ViewChange, commQuorum(r.n))
		r.vcMsgs[m.NewView] = g
	}
	g[m.Replica] = m
	if len(g) < commQuorum(r.n) {
		return
	}
	// Consolidate: take the longest history among 2f+1 replicas.
	var best *ViewChange
	for _, rid := range sortedVCKeys(g) {
		vc := g[rid]
		if best == nil || vc.MaxSeq > best.MaxSeq {
			best = vc
		}
	}
	nv := &NewView{View: m.NewView, Replica: r.cfg.Self, Entries: best.Entries}
	r.cfg.Costs.ChargeSign(ctx)
	nv.Sig = engine.SignBody(r.cfg.Auth, nv)
	r.broadcastReplicas(ctx, nv)
	r.applyNewView(ctx, nv)
}

func (r *Replica) handleNewView(ctx proc.Context, m *NewView) {
	if m.View <= r.view || primaryOf(m.View, r.n) != m.Replica {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.applyNewView(ctx, m)
}

func (r *Replica) applyNewView(ctx proc.Context, m *NewView) {
	if m.View <= r.view {
		return
	}
	r.view = m.View
	r.inVC = false
	r.stats.ViewChanges++
	// Requests still queued for the deposed primary's next batch are the
	// old view's business; the clients' retransmits re-drive them.
	r.batcher.Drop()
	// Adopt any history entries we missed, executing them — whole batches,
	// in batch order — as we go.
	for _, e := range m.Entries {
		if _, ok := r.log[e.Seq]; ok || e.Seq != r.maxSeq+1 {
			continue
		}
		cmds := e.Cmds()
		hh := chainHash(r.histHashAt(e.Seq-1), e.CmdDigest)
		le := &logEntry{
			seq: e.Seq, cmds: cmds,
			digests:   make([]types.Digest, len(cmds)),
			cmdDigest: e.CmdDigest,
			histHash:  hh,
			results:   make([]types.Result, len(cmds)),
			executed:  true, committed: e.Committed,
		}
		for i, cmd := range cmds {
			r.cfg.Costs.ChargeExecute(ctx)
			le.digests[i] = cmd.Digest()
			le.results[i] = r.cfg.App.Apply(cmd)
			r.byCmd[cmdKey{cmd.Client, cmd.Timestamp}] = e.Seq
		}
		r.log[e.Seq] = le
		r.maxSeq = e.Seq
		r.histHash = hh
		for _, cmd := range cmds {
			r.window.Seen(cmd.Client, cmd.Timestamp)
		}
	}
	r.life.MaybeEmit(ctx, r.histHash)
	if primaryOf(r.view, r.n) == r.cfg.Self {
		r.nextSeq = r.maxSeq + 1
	}
	// Cancel all forwarding timers: the new primary starts fresh.
	for key, id := range r.forwarded {
		delete(r.forwarded, key)
		delete(r.timerAct, id)
	}
}

func sortedVCKeys(m map[types.ReplicaID]*ViewChange) []types.ReplicaID {
	out := make([]types.ReplicaID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
