package pbft

import (
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
	engine.Batch // the ordered batch, its digests and results
	view         uint64
	sigs         [][]byte // the client signatures, in batch order
	prepares     map[types.ReplicaID]bool
	commits      map[types.ReplicaID]bool
	havePre      bool
	prepared     bool
	committed    bool
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

type sequencer = engine.Sequencer[Request, *Request, *Reply, *slotState]

// Replica is one PBFT replica; it implements proc.Process. Admission,
// batching, frame checks, execution, the reply cache and the log lifecycle
// are its engine.Sequencer's; this package adds the three phases, the view
// change and the write-ahead log.
type Replica struct {
	*sequencer
	cfg   engine.SeqConfig
	store store.Store // nil: memoryless across restarts
	n     int
	f     int

	// Durability (see durable.go): recovering suppresses sends and WAL
	// writes while the replica rebuilds from its store; walDirty marks
	// appended-but-unsynced records (group commit); the first store error
	// latches walErr and disables logging for the process.
	recovering bool
	walDirty   bool
	walErr     error

	vcMsgs vcTable

	stats ReplicaStats
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	PrePrepares uint64
	Prepared    uint64
	Committed   uint64
	Executed    uint64
	ViewChanges uint64
	engine.SeqStats

	// Durability observables (see durable.go).
	WALRecords uint64 // records appended to the write-ahead log
	Recoveries uint64 // restarts recovered from the durable store
	WALFailed  bool   // the store errored; logging is disabled
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
	r := &Replica{cfg: cfg, store: st, n: cfg.N, f: faults(cfg.N), vcMsgs: make(vcTable)}
	seq, err := engine.NewSequencer[Request, *Request, *Reply, *slotState]("pbft", &r.cfg, maxBatch, logTags, host{r})
	if err != nil {
		return nil, err
	}
	r.sequencer = seq
	r.TrackVotes(r.vcMsgs)
	return r, nil
}

// Stats returns a snapshot of counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.SeqStats = r.MergeStats(s.SeqStats)
	s.Executed += r.ExecutedCommands()
	s.WALFailed = r.walErr != nil
	return s
}

// Init implements proc.Process. A replica handed a non-empty store
// rebuilds itself from it (see durable.go).
func (r *Replica) Init(ctx proc.Context) {
	if r.store != nil && !r.store.Empty() {
		r.recoverFromStore(ctx)
	}
}

// OnTimer implements proc.Process.
func (r *Replica) OnTimer(ctx proc.Context, id proc.TimerID) {
	r.sequencer.OnTimer(ctx, id)
	r.walSync()
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
	case *ViewChange:
		r.handleViewChange(ctx, m)
	case *NewView:
		r.handleNewView(ctx, m)
	default:
		if !r.ReceiveLog(ctx, msg) {
			r.stats.DroppedInvalid++
		}
	}
	r.walSync()
}

// host is PBFT's half of its Sequencer (engine.SeqHost, engine.SendGate)
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
	reply := &Reply{View: s.view, Timestamp: cmd.Timestamp, Client: cmd.Client, Replica: h.cfg.Self, Result: s.Results[i]}
	h.cfg.Costs.ChargeSign(ctx)
	reply.Sig = engine.SignBody(h.cfg.Auth, reply)
	return reply
}

// committed is PBFT's execution rule: a slot executes once committed-local.
func committed(s *slotState) bool { return s.committed }

// Suspect starts a view change.
func (h host) Suspect(ctx proc.Context) { h.startViewChange(ctx) }

// SendOpen suppresses sends while the replica recovers and otherwise makes
// durable first what this handler appended: records must be stable before
// any message derived from them reaches the wire (the live substrate sends
// immediately; see durable.go).
func (h host) SendOpen() bool {
	if h.recovering {
		return false
	}
	h.walSync()
	return true
}

func (r *Replica) slot(seq uint64) *slotState {
	s, ok := r.Log[seq]
	if !ok {
		s = r.newSlot(seq)
		r.Log[seq] = s
	}
	return s
}

func (r *Replica) newSlot(seq uint64) *slotState {
	return &slotState{
		Batch:    engine.Batch{Seq: seq},
		prepares: make(map[types.ReplicaID]bool, r.n),
		commits:  make(map[types.ReplicaID]bool, r.n),
	}
}

func (r *Replica) handlePrePrepare(ctx proc.Context, m *PrePrepare) {
	if m.View != r.View() || r.InVC {
		r.stats.DroppedInvalid++
		return
	}
	digests := r.CheckFrame(ctx, m, r.Primary(), m.CmdDigest)
	if digests == nil {
		return
	}
	s := r.slot(m.Seq)
	if s.havePre && s.Digest != m.CmdDigest {
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
	s.Digest = m.CmdDigest
	s.Digests = digests
	s.Cmds = make([]types.Command, m.BatchSize())
	s.sigs = make([][]byte, m.BatchSize())
	for i := range s.Cmds {
		req := m.ReqAt(i)
		s.Cmds[i], s.sigs[i] = req.Cmd, req.Sig
		r.Assign(&s.Cmds[i], m.Seq)
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
		r.Broadcast(ctx, p)
		s.prepares[r.cfg.Self] = true
	}
	r.checkPrepared(ctx, s)
}

func (r *Replica) handlePrepare(ctx proc.Context, m *Prepare) {
	if m.View != r.View() || r.InVC {
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
	if s.havePre && s.Digest != m.CmdDigest {
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
	c := &Commit{View: s.view, Seq: s.Seq, CmdDigest: s.Digest, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	c.Sig = engine.SignBody(r.cfg.Auth, c)
	r.Broadcast(ctx, c)
	s.commits[r.cfg.Self] = true
	r.checkCommitted(ctx, s)
}

func (r *Replica) handleCommit(ctx proc.Context, m *Commit) {
	if m.View != r.View() || r.InVC {
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
	if s.havePre && s.Digest != m.CmdDigest {
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
	r.ExecuteReady(ctx, committed)
}

// --- view change (simplified) ---

// vcTable holds each replica's pending VIEW-CHANGE: the one for the highest
// view it asked for. An honest replica sends one per view-change episode,
// so the table stays at n entries however many views a faulty one names.
type vcTable map[types.ReplicaID]*ViewChange

// Prune implements engine.ViewPruner.
func (t vcTable) Prune(view uint64) {
	for id, vc := range t {
		if vc.NewView <= view {
			delete(t, id)
		}
	}
}

// forView returns the pending VIEW-CHANGEs for view, by sender.
func (t vcTable) forView(view uint64) map[types.ReplicaID]*ViewChange {
	g := make(map[types.ReplicaID]*ViewChange, len(t))
	for id, vc := range t {
		if vc.NewView == view {
			g[id] = vc
		}
	}
	return g
}

// startViewChange broadcasts this replica's VIEW-CHANGE for the next view
// and returns it; nil while a view change is already under way.
func (r *Replica) startViewChange(ctx proc.Context) *ViewChange {
	if r.InVC {
		return nil
	}
	r.InVC = true
	vc := &ViewChange{NewView: r.View() + 1, Replica: r.cfg.Self, MaxSeq: r.MaxExec}
	seqs := make([]uint64, 0, len(r.Log))
	for seq := range r.Log {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		s := r.Log[seq]
		if !s.havePre {
			continue
		}
		e := VCEntry{
			Seq: seq, CmdDigest: s.Digest, Cmd: s.Cmds[0], ReqSig: s.sigs[0],
			Prepared: s.prepared,
		}
		if len(s.Cmds) > 1 {
			// Batched slots are reported whole so the view change can never
			// split a batch.
			e.Extra = make([]Request, len(s.Cmds)-1)
			for i := range e.Extra {
				e.Extra[i] = s.req(i + 1)
			}
		}
		vc.Entries = append(vc.Entries, e)
	}
	r.cfg.Costs.ChargeSign(ctx)
	vc.Sig = engine.SignBody(r.cfg.Auth, vc)
	r.Broadcast(ctx, vc)
	r.acceptViewChange(ctx, vc)
	return vc
}

func (r *Replica) handleViewChange(ctx proc.Context, m *ViewChange) {
	if m.NewView <= r.View() {
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
	if prev := r.vcMsgs[m.Replica]; prev != nil && prev.NewView > m.NewView {
		return // the sender has since asked for a later view
	}
	r.vcMsgs[m.Replica] = m
	g := r.vcMsgs.forView(m.NewView)
	// Join the view change once f+1 replicas demand it.
	if len(g) >= r.f+1 && !r.InVC {
		if vc := r.startViewChange(ctx); vc.NewView == m.NewView {
			g[r.cfg.Self] = vc
		}
	}
	if len(g) < quorum(r.n) || primaryOf(m.NewView, r.n) != r.cfg.Self {
		return
	}
	// New primary: consolidate the prepared history (longest wins) and
	// announce the new view.
	var best *ViewChange
	for _, rid := range engine.SortedReplicas(g) {
		vc := g[rid]
		if best == nil || vc.MaxSeq > best.MaxSeq || (vc.MaxSeq == best.MaxSeq && len(vc.Entries) > len(best.Entries)) {
			best = vc
		}
	}
	nv := &NewView{View: m.NewView, Replica: r.cfg.Self, Entries: best.Entries}
	r.cfg.Costs.ChargeSign(ctx)
	nv.Sig = engine.SignBody(r.cfg.Auth, nv)
	r.Broadcast(ctx, nv)
	r.applyNewView(ctx, nv)
}

func (r *Replica) handleNewView(ctx proc.Context, m *NewView) {
	if m.View <= r.View() || primaryOf(m.View, r.n) != m.Replica {
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
	if m.View <= r.View() {
		return
	}
	r.EnterView(m.View)
	r.stats.ViewChanges++
	r.walView(m.View)
	maxSeq := r.MaxExec
	// Re-run the protocol for prepared-but-unexecuted entries in the new
	// view: the new primary re-pre-prepares them in order.
	if r.IsPrimary() {
		for _, e := range m.Entries {
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
			if e.Seq <= r.MaxExec {
				continue
			}
			if s, ok := r.Log[e.Seq]; ok && s.Executed {
				continue
			}
			// Reset agreement state for the new view.
			r.Log[e.Seq] = r.newSlot(e.Seq)
			pp := &PrePrepare{
				View: m.View, Seq: e.Seq, CmdDigest: e.CmdDigest,
				Req: Request{Cmd: e.Cmd, Sig: e.ReqSig},
			}
			if len(e.Extra) > 0 {
				pp.Batch = append([]Request(nil), e.Extra...)
			}
			r.cfg.Costs.ChargeSign(ctx)
			pp.Sig = engine.SignBody(r.cfg.Auth, pp)
			r.Broadcast(ctx, pp)
			r.acceptPrePrepare(ctx, pp, nil)
		}
		r.NextSeq = maxSeq + 1
	} else {
		// Backups reset agreement state for unexecuted slots; the new
		// primary's PRE-PREPAREs re-drive them.
		for seq, s := range r.Log {
			if !s.Executed {
				delete(r.Log, seq)
			}
		}
	}
}
