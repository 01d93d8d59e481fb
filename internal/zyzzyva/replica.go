package zyzzyva

import (
	"crypto/sha256"
	"sort"

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

// ReplicaConfig configures one Zyzzyva replica. Zyzzyva executes
// speculatively in sequence order (rollback happens only across view
// changes, which re-propose the same suffix, so the state is applied
// directly). CheckpointInterval 0 (the default) disables checkpointing —
// byte-identical original flow.
type ReplicaConfig = engine.SeqConfig

// logEntry is one ordered slot (a whole batch of commands with primary-side
// batching; the history hash chains the batch digest).
type logEntry struct {
	engine.Batch
	view      uint64 // the view the slot was ordered in
	histHash  types.Digest
	committed bool
}

type sequencer = engine.Sequencer[Request, *Request, *SpecResponse, *logEntry]

// Replica is one Zyzzyva replica; it implements proc.Process. Admission,
// batching, frame checks, execution, the reply cache and the log lifecycle
// are its engine.Sequencer's; this package adds the history chain,
// speculative responses, commit certificates and the view change.
type Replica struct {
	*sequencer
	cfg ReplicaConfig
	n   int
	f   int

	histHash types.Digest
	pending  map[uint64]*OrderReq // out-of-order buffer

	// view change state
	hateVotes engine.Votes[bool]
	vcMsgs    engine.Votes[*ViewChange]

	stats ReplicaStats
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	Ordered      uint64
	SpecExecuted uint64
	LocalCommits uint64
	ViewChanges  uint64
	engine.SeqStats
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a Zyzzyva replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{
		cfg:       cfg,
		n:         cfg.N,
		f:         faults(cfg.N),
		pending:   make(map[uint64]*OrderReq),
		hateVotes: make(engine.Votes[bool]),
		vcMsgs:    make(engine.Votes[*ViewChange]),
	}
	seq, err := engine.NewSequencer[Request, *Request, *SpecResponse, *logEntry]("zyzzyva", &r.cfg, maxBatch, logTags, host{r})
	if err != nil {
		return nil, err
	}
	r.sequencer = seq
	r.TrackVotes(r.hateVotes, r.vcMsgs)
	return r, nil
}

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.SeqStats = r.MergeStats(s.SeqStats)
	s.SpecExecuted += r.ExecutedCommands()
	return s
}

// Init implements proc.Process.
func (r *Replica) Init(proc.Context) {}

// Receive implements proc.Process.
func (r *Replica) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	if !r.Inbound(ctx, from, msg) {
		return
	}
	switch m := msg.(type) {
	case *Request:
		r.Admit(ctx, m)
	case *OrderReq:
		r.handleOrderReq(ctx, m)
	case *CommitCert:
		r.handleCommitCert(ctx, m)
	case *HatePrimary:
		r.handleHatePrimary(ctx, m)
	case *ViewChange:
		r.handleViewChange(ctx, m)
	case *NewView:
		r.handleNewView(ctx, m)
	default:
		if !r.ReceiveLog(ctx, msg) {
			r.stats.DroppedInvalid++
		}
	}
}

// host is Zyzzyva's half of its Sequencer (engine.SeqHost,
// engine.ReplyRefresher) and of its Lifecycle (checkpoint.go).
type host struct{ *Replica }

// Order broadcasts one ORDERREQ — one primary signature, one wire frame,
// one history-chain link — for a flushed batch.
func (h host) Order(ctx proc.Context, seq uint64, digest types.Digest, digests []types.Digest, first Request, rest []Request) {
	or := &OrderReq{
		View:      h.View(),
		Seq:       seq,
		HistHash:  chainHash(h.histHashAt(seq-1), digest),
		CmdDigest: digest,
		Req:       first,
		Batch:     rest,
	}
	or.Sig = engine.SignBody(h.cfg.Auth, or)
	h.stats.Ordered += uint64(or.BatchSize())
	h.Broadcast(ctx, or)
	h.acceptOrderReq(ctx, or, digests)
}

// Reply signs the SPECRESPONSE to one speculatively executed command.
func (h host) Reply(ctx proc.Context, e *logEntry, i int) *SpecResponse {
	return h.specResponse(ctx, e.view, e, i)
}

// Suspect votes to depose the primary.
func (h host) Suspect(ctx proc.Context) { h.voteHatePrimary(ctx) }

// RefreshReply resends a cached SPECRESPONSE only within its view. Either
// a cached response predates a view change (SPECRESPONSEs only match within
// one view, so a stale copy can never complete the client's quorum) or the
// entry was adopted from a NEW-VIEW without ever being answered: the
// response is rebuilt from the log at the current view so every honest
// replica serves a matching copy.
func (h host) RefreshReply(ctx proc.Context, key engine.ReqKey, cached *SpecResponse, ok bool) (*SpecResponse, bool) {
	if ok && cached.View == h.View() {
		h.cfg.Costs.ChargeSign(ctx)
		return cached, true
	}
	sr := h.rebuildReply(ctx, key)
	return sr, sr != nil
}

// histHashAt returns the chained history hash up to seq.
func (r *Replica) histHashAt(seq uint64) types.Digest {
	if seq == 0 {
		return types.Digest{}
	}
	if e, ok := r.Log[seq]; ok {
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
	if m.View != r.View() || r.InVC {
		r.stats.DroppedInvalid++
		return
	}
	digests := r.CheckFrame(ctx, m, r.Primary(), m.CmdDigest)
	if digests == nil {
		return
	}
	if _, dup := r.Log[m.Seq]; dup {
		return
	}
	if m.Seq == r.MaxExec+1 {
		// The common case: the assignment is contiguous, so the digests
		// computed above carry straight through.
		r.acceptOrderReq(ctx, m, digests)
	} else {
		r.pending[m.Seq] = m
	}
	r.drain(ctx)
}

// drain accepts the buffered assignments that have become contiguous.
func (r *Replica) drain(ctx proc.Context) {
	for {
		next, ok := r.pending[r.MaxExec+1]
		if !ok {
			return
		}
		delete(r.pending, r.MaxExec+1)
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
	e := &logEntry{
		Batch:    engine.Batch{Seq: m.Seq, Cmds: make([]types.Command, m.BatchSize()), Digests: digests, Digest: m.CmdDigest},
		view:     m.View,
		histHash: m.HistHash,
	}
	r.Log[m.Seq] = e
	r.histHash = m.HistHash
	for i := range e.Cmds {
		e.Cmds[i] = m.ReqAt(i).Cmd
		// The ORDERREQ doubles as evidence the primary is alive.
		r.Assign(&e.Cmds[i], m.Seq)
	}
	r.Execute(ctx, e)
	r.Life().MaybeEmit(ctx, r.histHash)
}

// specResponse signs the SPECRESPONSE to command i of an executed entry at
// view.
func (r *Replica) specResponse(ctx proc.Context, view uint64, e *logEntry, i int) *SpecResponse {
	cmd := &e.Cmds[i]
	sr := &SpecResponse{
		View:      view,
		Seq:       e.Seq,
		HistHash:  e.histHash,
		CmdDigest: e.Digests[i],
		Client:    cmd.Client,
		Timestamp: cmd.Timestamp,
		Replica:   r.cfg.Self,
		Result:    e.Results[i],
		Batched:   len(e.Cmds) > 1,
		BatchIdx:  uint32(i),
	}
	r.cfg.Costs.ChargeSign(ctx)
	sr.Sig = engine.SignBody(r.cfg.Auth, sr)
	return sr
}

// rebuildReply re-signs a SPECRESPONSE for an already-executed command at
// the current view. Entries adopted from a NEW-VIEW were executed without
// answering their clients, and responses cached before a view change carry
// the old view number — in both cases the log entry holds everything
// needed to serve a fresh, current-view response. Returns nil when the
// command is unknown or its entry has been truncated.
func (r *Replica) rebuildReply(ctx proc.Context, key engine.ReqKey) *SpecResponse {
	seq, ok := r.SeqOf(key)
	if !ok {
		return nil
	}
	e := r.Log[seq]
	if e == nil || !e.Executed {
		return nil
	}
	for i := range e.Cmds {
		if engine.KeyOf(&e.Cmds[i]) != key {
			continue
		}
		sr := r.specResponse(ctx, r.View(), e, i)
		r.CacheReply(key, sr)
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
	e, ok := r.Log[m.Seq]
	if !ok {
		if m.Seq <= r.StableCheckpoint() {
			// The slot was truncated — meaning it executed under a stable
			// checkpoint, a strictly stronger durability guarantee than a
			// local commit. Acknowledge from the reply cache so a client
			// whose certificate raced log truncation can still finish.
			if sr, ok := r.CachedReply(engine.ReqKey{Client: m.Client, TS: m.Timestamp}); ok && sr.CmdDigest == m.CmdDigest {
				lc := &LocalCommit{
					View:      r.View(),
					Seq:       m.Seq,
					CmdDigest: m.CmdDigest,
					Replica:   r.cfg.Self,
					Result:    sr.Result,
				}
				r.cfg.Costs.ChargeSign(ctx)
				lc.Sig = engine.SignBody(r.cfg.Auth, lc)
				r.stats.LocalCommits++
				r.Send(ctx, types.ClientNode(m.Client), lc)
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
	if idx >= len(e.Cmds) || e.Digests[idx] != m.CmdDigest {
		return
	}
	e.committed = true
	lc := &LocalCommit{
		View:      r.View(),
		Seq:       m.Seq,
		CmdDigest: m.CmdDigest,
		Replica:   r.cfg.Self,
		Result:    e.Results[idx],
	}
	r.cfg.Costs.ChargeSign(ctx)
	lc.Sig = engine.SignBody(r.cfg.Auth, lc)
	r.stats.LocalCommits++
	r.Send(ctx, types.ClientNode(m.Client), lc)
}

// --- view change (skeleton) ---

func (r *Replica) voteHatePrimary(ctx proc.Context) {
	if r.InVC {
		return
	}
	hp := &HatePrimary{View: r.View(), Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	hp.Sig = engine.SignBody(r.cfg.Auth, hp)
	r.Broadcast(ctx, hp)
	r.recordHate(ctx, r.View(), r.cfg.Self)
}

func (r *Replica) handleHatePrimary(ctx proc.Context, m *HatePrimary) {
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
	r.recordHate(ctx, m.View, m.Replica)
}

func (r *Replica) recordHate(ctx proc.Context, view uint64, from types.ReplicaID) {
	votes := r.hateVotes.Add(view, from, true, r.f+1)
	if len(votes) < r.f+1 || r.InVC {
		return
	}
	// f+1 votes prove at least one correct replica suspects the primary:
	// move to the next view.
	r.InVC = true
	newView := r.View() + 1
	vc := &ViewChange{NewView: newView, Replica: r.cfg.Self, MaxSeq: r.MaxExec}
	seqs := make([]uint64, 0, len(r.Log))
	for seq := range r.Log {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		e := r.Log[seq]
		entry := VCEntry{
			Seq: seq, CmdDigest: e.Digest, Cmd: e.Cmds[0], Committed: e.committed,
		}
		if len(e.Cmds) > 1 {
			// Batched assignments are reported whole so a view change can
			// never split a batch.
			entry.Extra = append([]types.Command(nil), e.Cmds[1:]...)
		}
		vc.Entries = append(vc.Entries, entry)
	}
	r.cfg.Costs.ChargeSign(ctx)
	vc.Sig = engine.SignBody(r.cfg.Auth, vc)
	newPrimary := primaryOf(newView, r.n)
	if newPrimary == r.cfg.Self {
		r.acceptViewChange(ctx, vc)
	} else {
		r.Send(ctx, types.ReplicaNode(newPrimary), vc)
	}
	// Amplify the vote so every correct replica joins.
	hp := &HatePrimary{View: r.View(), Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	hp.Sig = engine.SignBody(r.cfg.Auth, hp)
	r.Broadcast(ctx, hp)
}

func (r *Replica) handleViewChange(ctx proc.Context, m *ViewChange) {
	if m.NewView != r.View()+1 || primaryOf(m.NewView, r.n) != r.cfg.Self {
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
	g := r.vcMsgs.Add(m.NewView, m.Replica, m, commQuorum(r.n))
	if len(g) < commQuorum(r.n) {
		return
	}
	// Consolidate: take the longest history among 2f+1 replicas.
	var best *ViewChange
	for _, rid := range engine.SortedReplicas(g) {
		vc := g[rid]
		if best == nil || vc.MaxSeq > best.MaxSeq {
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
	// Adopt any history entries we missed, executing them — whole batches,
	// in batch order — as we go.
	for _, e := range m.Entries {
		if _, ok := r.Log[e.Seq]; ok || e.Seq != r.MaxExec+1 {
			continue
		}
		cmds := e.Cmds()
		le := &logEntry{
			Batch: engine.Batch{
				Seq: e.Seq, Cmds: cmds,
				Digests:  make([]types.Digest, len(cmds)),
				Digest:   e.CmdDigest,
				Results:  make([]types.Result, len(cmds)),
				Executed: true,
			},
			histHash:  chainHash(r.histHashAt(e.Seq-1), e.CmdDigest),
			committed: e.Committed,
		}
		for i, cmd := range cmds {
			r.cfg.Costs.ChargeExecute(ctx)
			le.Digests[i] = cmd.Digest()
			le.Results[i] = r.cfg.App.Apply(cmd)
		}
		r.Log[e.Seq] = le
		r.MaxExec = e.Seq
		r.histHash = le.histHash
		for i := range cmds {
			r.Record(&cmds[i], e.Seq)
		}
	}
	r.Life().MaybeEmit(ctx, r.histHash)
	if r.IsPrimary() {
		r.NextSeq = r.MaxExec + 1
	}
}
