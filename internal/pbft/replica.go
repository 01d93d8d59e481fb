package pbft

import (
	"fmt"
	"sort"
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

// ReplicaConfig configures one PBFT replica.
type ReplicaConfig struct {
	Self types.ReplicaID
	N    int
	App  types.Application
	Auth auth.Authenticator
	// Costs holds virtual processing costs for simulation.
	Costs proc.Costs
	// InitialView selects the starting primary (primary = view mod N).
	InitialView uint64
	// ForwardTimeout bounds how long a backup waits for the primary to
	// pre-prepare a forwarded request before starting a view change.
	ForwardTimeout time.Duration
	// CheckpointInterval is the distance between checkpoints (0 = default).
	CheckpointInterval uint64
	// LogRetention keeps this many additional sequence numbers below the
	// stable checkpoint when truncating (0 = truncate everything below it).
	LogRetention uint64
	// BatchSize is the maximum number of client requests the primary
	// orders per sequence number. 0 or 1 disables batching and reproduces
	// the paper's one-slot-per-request flow exactly.
	BatchSize int
	// BatchDelay is how long an incomplete batch waits for more requests
	// before flushing (default DefaultBatchDelay; only used when
	// BatchSize > 1).
	BatchDelay time.Duration
	// Store, when non-nil, is the replica's durability layer (see
	// internal/store and durable.go). Nil (the default) keeps the replica
	// memoryless across restarts — byte-identical to the pre-durability
	// behaviour.
	Store store.Store
	// Mute makes the replica silent (fault injection).
	Mute bool
	// Behavior, when non-nil, intercepts every message this replica sends
	// and receives (adversarial scenario harness; see engine.Behavior).
	Behavior engine.Behavior
}

// DefaultBatchDelay is the default wait for an incomplete primary-side
// batch; it must stay far below client retry timeouts.
const DefaultBatchDelay = 2 * time.Millisecond

type slotState struct {
	seq       uint64
	view      uint64
	cmdDigest types.Digest   // batch digest (the command digest when unbatched)
	reqs      []Request      // the ordered batch, in batch order (len ≥ 1)
	digests   []types.Digest // per-command digests
	havePre   bool
	prepares  map[types.ReplicaID]bool
	commits   map[types.ReplicaID]bool
	prepared  bool
	committed bool
	executed  bool
	results   []types.Result
	// sentCommit is kept for symmetry with the protocol description.
	sentCommit bool
}

// Replica is one PBFT replica; it implements proc.Process.
type Replica struct {
	cfg ReplicaConfig
	n   int
	f   int

	view    uint64
	nextSeq uint64 // primary only
	maxExec uint64 // highest contiguously executed seq
	slots   map[uint64]*slotState

	byCmd      map[cmdKey]uint64
	replyCache map[cmdKey]*Reply

	// batcher accumulates verified requests the primary will order under
	// its next sequence number (BatchSize > 1).
	batcher *engine.Batcher[cmdKey, *Request]

	forwarded map[cmdKey]proc.TimerID
	timerSeq  uint64
	timerAct  map[proc.TimerID]func(ctx proc.Context)

	// Log lifecycle (checkpoint.go): checkpoints, truncation and state
	// transfer, and the per-client request window through which truncation
	// releases the per-request tables.
	life   *engine.Lifecycle
	window *engine.RequestWindow

	// Durability (see durable.go): recovering suppresses sends and WAL
	// writes while the replica rebuilds from its store; walDirty marks
	// appended-but-unsynced records (group commit); the first store error
	// latches walErr and disables logging for the process.
	recovering bool
	walDirty   bool
	walErr     error

	// view change state
	vcMsgs map[uint64]map[types.ReplicaID]*ViewChange
	inVC   bool

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
	PrePrepares    uint64
	Prepared       uint64
	Committed      uint64
	Executed       uint64
	Checkpoints    uint64
	ViewChanges    uint64
	DroppedInvalid uint64

	// Log-lifecycle observables (checkpointing / GC / state transfer).
	TruncatedEntries  uint64 // slots freed by truncation
	LowWaterMark      uint64 // latest stable checkpoint sequence number
	CatchupsServed    uint64 // state transfers served to lagging peers
	CatchupsInstalled uint64 // state transfers installed locally
	CatchupMismatches uint64 // responders disagreeing with the installed f+1 majority

	// Durability observables (see durable.go).
	WALRecords uint64 // records appended to the write-ahead log
	Recoveries uint64 // restarts recovered from the durable store
	WALFailed  bool   // the store errored; logging is disabled
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a PBFT replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("pbft: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.App == nil || cfg.Auth == nil {
		return nil, fmt.Errorf("pbft: app and auth are required")
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Second
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	if cfg.BatchSize > maxBatch-1 {
		return nil, fmt.Errorf("pbft: batch size %d exceeds maximum %d", cfg.BatchSize, maxBatch-1)
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
		byCmd:      make(map[cmdKey]uint64),
		replyCache: make(map[cmdKey]*Reply),
		forwarded:  make(map[cmdKey]proc.TimerID),
		timerAct:   make(map[proc.TimerID]func(ctx proc.Context)),
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

// Stats returns a snapshot of counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	ls := r.life.Stats()
	s.Checkpoints, s.LowWaterMark = ls.Checkpoints, ls.LowWaterMark
	s.CatchupsServed, s.CatchupsInstalled, s.CatchupMismatches = ls.CatchupsServed, ls.CatchupsInstalled, ls.CatchupMismatches
	s.DroppedInvalid += ls.DroppedInvalid
	s.WALFailed = r.walErr != nil
	return s
}

// SlotCount returns the number of retained slots (soak-test observable).
func (r *Replica) SlotCount() int { return len(r.slots) }

// RequestStateCount returns the size of the larger per-request table (reply
// cache, exactly-once table): the bounded-memory observable beside
// SlotCount.
func (r *Replica) RequestStateCount() int { return max(len(r.byCmd), len(r.replyCache)) }

// BatcherStats returns the primary-side batch-size observables.
func (r *Replica) BatcherStats() engine.BatcherStats { return r.batcher.Stats() }

// View returns the current view.
func (r *Replica) View() uint64 { return r.view }

// MaxExecuted returns the highest contiguously executed sequence number.
func (r *Replica) MaxExecuted() uint64 { return r.maxExec }

// StableCheckpoint returns the latest stable checkpoint sequence number.
func (r *Replica) StableCheckpoint() uint64 { return r.life.Mark() }

// Init implements proc.Process. A replica handed a non-empty store
// rebuilds itself from it (see durable.go).
func (r *Replica) Init(ctx proc.Context) {
	if r.cfg.Store != nil && !r.cfg.Store.Empty() {
		r.recoverFromStore(ctx)
	}
}

// OnTimer implements proc.Process.
func (r *Replica) OnTimer(ctx proc.Context, id proc.TimerID) {
	if fn, ok := r.timerAct[id]; ok {
		delete(r.timerAct, id)
		fn(ctx)
	}
	r.walSync()
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
	if r.cfg.Mute || r.recovering {
		return
	}
	if r.cfg.Behavior != nil && !r.cfg.Behavior.Outbound(ctx, to, msg) {
		return
	}
	// Durability before dispatch: records appended by this handler must be
	// stable before any message derived from them reaches the wire (the live
	// substrate sends immediately; see durable.go).
	r.walSync()
	ctx.Send(to, msg)
}

func (r *Replica) broadcastReplicas(ctx proc.Context, msg codec.Message) {
	if r.cfg.Mute || r.recovering {
		return
	}
	// Durability before dispatch — see send.
	r.walSync()
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
	case *PrePrepare:
		r.handlePrePrepare(ctx, m)
	case *Prepare:
		r.handlePrepare(ctx, m)
	case *Commit:
		r.handleCommit(ctx, m)
	case *Checkpoint:
		r.life.HandleCheckpoint(ctx, m)
	case *engine.CatchupReq:
		r.life.HandleCatchupReq(ctx, m)
	case *engine.CatchupResp:
		r.life.HandleCatchupResp(ctx, m)
	case *ViewChange:
		r.handleViewChange(ctx, m)
	case *NewView:
		r.handleNewView(ctx, m)
	default:
		r.stats.DroppedInvalid++
	}
	r.walSync()
}

func (r *Replica) handleRequest(ctx proc.Context, m *Request) {
	// The asymmetric client-signature check is charged per request; the
	// per-instance admission overhead is charged where the instance opens
	// (flushBatch), so primary-side batching amortizes it across the batch
	// — the same split cost model as ezBFT's owner-side batching. At batch
	// size 1 the two charges land in this same handler invocation, exactly
	// the paper's calibrated per-request admission cost.
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
		// and suspecting the primary over it) would execute it twice.
		r.stats.DroppedInvalid++
		return
	}
	if primaryOf(r.view, r.n) != r.cfg.Self {
		if _, already := r.forwarded[key]; already || r.inVC {
			return
		}
		r.send(ctx, types.ReplicaNode(primaryOf(r.view, r.n)), m)
		r.forwarded[key] = r.afterTimer(ctx, r.cfg.ForwardTimeout, func(ctx proc.Context) {
			if _, still := r.forwarded[key]; !still {
				return
			}
			delete(r.forwarded, key)
			r.startViewChange(ctx)
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
// broadcasts one PRE-PREPARE — one primary signature, one wire frame — for
// the whole batch. Primaryship is re-checked at flush time: a view change
// while the batch accumulated drops the requests (the clients' retransmits
// re-drive them at the new primary), as does a command another replica
// assigned in the meantime.
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
	// Clone, not a plain copy: a retransmitted request is one decoded value
	// shared with every replica's verifier pool on the mesh.
	pp := &PrePrepare{View: r.view, Seq: seq, CmdDigest: engine.BatchDigest(digests), Req: fresh[0].Clone()}
	if len(fresh) > 1 {
		pp.Batch = make([]Request, len(fresh)-1)
		for i, m := range fresh[1:] {
			pp.Batch[i] = m.Clone()
		}
	}
	r.cfg.Costs.ChargeAdmitInstance(ctx)
	r.cfg.Costs.ChargeSign(ctx)
	pp.Sig = engine.SignBody(r.cfg.Auth, pp)
	r.stats.PrePrepares++
	// Accept (and WAL, see durable.go) before the broadcast: the primary
	// must not propose an assignment it could forget across a crash.
	r.acceptPrePrepare(ctx, pp, digests)
	r.broadcastReplicas(ctx, pp)
}

func (r *Replica) slot(seq uint64) *slotState {
	s, ok := r.slots[seq]
	if !ok {
		s = &slotState{
			seq:      seq,
			prepares: make(map[types.ReplicaID]bool, r.n),
			commits:  make(map[types.ReplicaID]bool, r.n),
		}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) handlePrePrepare(ctx proc.Context, m *PrePrepare) {
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
		// One primary-signature verification per batch; the embedded client
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
	s := r.slot(m.Seq)
	if s.havePre && s.cmdDigest != m.CmdDigest {
		// Equivocating primary; refuse the second assignment.
		r.stats.DroppedInvalid++
		return
	}
	r.acceptPrePrepare(ctx, m, digests)
}

// acceptPrePrepare records a validated proposal. digests carries the
// per-command digests the caller already computed (nil recomputes them —
// the view-change re-proposal path).
func (r *Replica) acceptPrePrepare(ctx proc.Context, m *PrePrepare, digests []types.Digest) {
	s := r.slot(m.Seq)
	if s.havePre {
		return
	}
	if digests == nil {
		digests = make([]types.Digest, m.BatchSize())
		for i := range digests {
			digests[i] = m.ReqAt(i).Cmd.Digest()
		}
	}
	s.havePre = true
	s.view = m.View
	s.cmdDigest = m.CmdDigest
	s.reqs = make([]Request, m.BatchSize())
	s.digests = digests
	for i := 0; i < m.BatchSize(); i++ {
		req := m.ReqAt(i)
		s.reqs[i] = *req
		key := cmdKey{req.Cmd.Client, req.Cmd.Timestamp}
		r.byCmd[key] = m.Seq
		r.window.Seen(req.Cmd.Client, req.Cmd.Timestamp)
		if id, ok := r.forwarded[key]; ok {
			delete(r.forwarded, key)
			delete(r.timerAct, id)
		}
	}
	// A restarted replica must remember what it accepted in this view
	// before its PREPARE leaves the building.
	r.walPre(s)

	// The primary's PRE-PREPARE counts as its prepare; backups broadcast
	// their own PREPARE.
	s.prepares[primaryOf(m.View, r.n)] = true
	if primaryOf(m.View, r.n) != r.cfg.Self {
		p := &Prepare{View: m.View, Seq: m.Seq, CmdDigest: m.CmdDigest, Replica: r.cfg.Self}
		r.cfg.Costs.ChargeSign(ctx)
		p.Sig = engine.SignBody(r.cfg.Auth, p)
		r.broadcastReplicas(ctx, p)
		s.prepares[r.cfg.Self] = true
	}
	r.checkPrepared(ctx, s)
}

func (r *Replica) handlePrepare(ctx proc.Context, m *Prepare) {
	if m.View != r.view || r.inVC {
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
	if s.havePre && s.cmdDigest != m.CmdDigest {
		return
	}
	s.prepares[m.Replica] = true
	r.checkPrepared(ctx, s)
}

// checkPrepared: prepared(m, v, n, i) holds with the pre-prepare and 2f
// prepares from distinct replicas (the pre-prepare counts for the primary).
func (r *Replica) checkPrepared(ctx proc.Context, s *slotState) {
	if s.prepared || !s.havePre || len(s.prepares) < quorum(r.n) {
		return
	}
	s.prepared = true
	r.stats.Prepared++
	c := &Commit{View: s.view, Seq: s.seq, CmdDigest: s.cmdDigest, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	c.Sig = engine.SignBody(r.cfg.Auth, c)
	s.sentCommit = true
	r.broadcastReplicas(ctx, c)
	s.commits[r.cfg.Self] = true
	r.checkCommitted(ctx, s)
}

func (r *Replica) handleCommit(ctx proc.Context, m *Commit) {
	if m.View != r.view || r.inVC {
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
	if s.havePre && s.cmdDigest != m.CmdDigest {
		return
	}
	s.commits[m.Replica] = true
	r.checkCommitted(ctx, s)
}

// checkCommitted: committed-local holds with 2f+1 commits; execution is
// sequential in sequence-number order.
func (r *Replica) checkCommitted(ctx proc.Context, s *slotState) {
	if s.committed || !s.prepared || len(s.commits) < quorum(r.n) {
		return
	}
	s.committed = true
	r.stats.Committed++
	r.walCommit(s)
	r.executeReady(ctx)
}

func (r *Replica) executeReady(ctx proc.Context) {
	for {
		s, ok := r.slots[r.maxExec+1]
		if !ok || !s.committed || s.executed {
			return
		}
		// The whole batch executes atomically in batch order; every command
		// gets its own REPLY so each client correlates its own result.
		s.results = make([]types.Result, len(s.reqs))
		for i := range s.reqs {
			cmd := s.reqs[i].Cmd
			r.cfg.Costs.ChargeExecute(ctx)
			s.results[i] = r.cfg.App.Apply(cmd)

			reply := &Reply{
				View:      s.view,
				Timestamp: cmd.Timestamp,
				Client:    cmd.Client,
				Replica:   r.cfg.Self,
				Result:    s.results[i],
			}
			r.cfg.Costs.ChargeSign(ctx)
			reply.Sig = engine.SignBody(r.cfg.Auth, reply)
			r.replyCache[cmdKey{cmd.Client, cmd.Timestamp}] = reply
			r.send(ctx, types.ClientNode(cmd.Client), reply)
		}
		s.executed = true
		r.maxExec = s.seq
		r.stats.Executed += uint64(len(s.reqs))
		r.life.MaybeEmit(ctx, types.Digest{})
	}
}

// --- view change (simplified) ---

func (r *Replica) startViewChange(ctx proc.Context) {
	if r.inVC {
		return
	}
	r.inVC = true
	newView := r.view + 1
	vc := &ViewChange{NewView: newView, Replica: r.cfg.Self, MaxSeq: r.maxExec}
	seqs := make([]uint64, 0, len(r.slots))
	for seq := range r.slots {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		s := r.slots[seq]
		if !s.havePre {
			continue
		}
		e := VCEntry{
			Seq: seq, CmdDigest: s.cmdDigest, Cmd: s.reqs[0].Cmd, ReqSig: s.reqs[0].Sig,
			Prepared: s.prepared,
		}
		if len(s.reqs) > 1 {
			// Batched slots are reported whole so the view change can never
			// split a batch.
			e.Extra = append([]Request(nil), s.reqs[1:]...)
		}
		vc.Entries = append(vc.Entries, e)
	}
	r.cfg.Costs.ChargeSign(ctx)
	vc.Sig = engine.SignBody(r.cfg.Auth, vc)
	r.broadcastReplicas(ctx, vc)
	r.acceptViewChange(ctx, vc)
}

func (r *Replica) handleViewChange(ctx proc.Context, m *ViewChange) {
	if m.NewView <= r.view {
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
		g = make(map[types.ReplicaID]*ViewChange, quorum(r.n))
		r.vcMsgs[m.NewView] = g
	}
	g[m.Replica] = m
	// Join the view change once f+1 replicas demand it.
	if len(g) >= r.f+1 && !r.inVC {
		r.startViewChange(ctx)
	}
	if len(g) < quorum(r.n) || primaryOf(m.NewView, r.n) != r.cfg.Self {
		return
	}
	// New primary: consolidate the prepared history (longest wins) and
	// announce the new view.
	var best *ViewChange
	for _, rid := range sortedVCKeys(g) {
		vc := g[rid]
		if best == nil || vc.MaxSeq > best.MaxSeq || (vc.MaxSeq == best.MaxSeq && len(vc.Entries) > len(best.Entries)) {
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
	r.walView(m.View)
	// Requests still queued for the deposed primary's next batch are the
	// old view's business; the clients' retransmits re-drive them.
	r.batcher.Drop()
	maxSeq := r.maxExec
	// Re-run the protocol for prepared-but-unexecuted entries in the new
	// view: the new primary re-pre-prepares them in order.
	if primaryOf(r.view, r.n) == r.cfg.Self {
		for _, e := range m.Entries {
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
			if e.Seq <= r.maxExec {
				continue
			}
			s := r.slot(e.Seq)
			if s.executed {
				continue
			}
			// Reset agreement state for the new view.
			r.slots[e.Seq] = &slotState{
				seq:      e.Seq,
				prepares: make(map[types.ReplicaID]bool, r.n),
				commits:  make(map[types.ReplicaID]bool, r.n),
			}
			pp := &PrePrepare{
				View: r.view, Seq: e.Seq, CmdDigest: e.CmdDigest,
				Req: Request{Cmd: e.Cmd, Sig: e.ReqSig},
			}
			if len(e.Extra) > 0 {
				pp.Batch = append([]Request(nil), e.Extra...)
			}
			r.cfg.Costs.ChargeSign(ctx)
			pp.Sig = engine.SignBody(r.cfg.Auth, pp)
			r.broadcastReplicas(ctx, pp)
			r.acceptPrePrepare(ctx, pp, nil)
		}
		r.nextSeq = maxSeq + 1
	} else {
		// Backups reset agreement state for unexecuted slots; the new
		// primary's PRE-PREPAREs re-drive them.
		for seq, s := range r.slots {
			if !s.executed {
				delete(r.slots, seq)
			}
		}
	}
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
