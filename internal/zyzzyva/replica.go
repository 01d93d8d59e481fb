package zyzzyva

import (
	"crypto/sha256"

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
// speculatively in sequence order and keeps no undo log: a view change
// carries every batch a client may have completed into the new view, and
// a replica there re-executes nothing it executed (see the limits in
// internal/engine/viewchange.go). CheckpointInterval 0 (the default)
// disables checkpointing — byte-identical original flow.
type ReplicaConfig = engine.SeqConfig

// logEntry is one ordered slot (a whole batch of commands with primary-side
// batching; the history hash chains the batch digest).
type logEntry struct {
	engine.Batch
	histHash types.Digest
	// cert is a commit certificate the slot received, the certificate a
	// VIEW-CHANGE reports.
	cert []*SpecResponse
}

type sequencer = engine.Sequencer[Request, *Request, *SpecResponse, *logEntry]

// Replica is one Zyzzyva replica; it implements proc.Process. Admission,
// batching, frame checks, execution, the reply cache and the log lifecycle
// are its engine.Sequencer's, and so are the view change and the
// write-ahead log; this package adds the history chain, speculative
// responses and commit certificates.
type Replica struct {
	*sequencer
	cfg ReplicaConfig
	n   int

	histHash types.Digest
	pending  map[uint64]*OrderReq // out-of-order buffer

	stats ReplicaStats
}

// ReplicaStats exposes protocol counters.
type ReplicaStats struct {
	Ordered      uint64
	SpecExecuted uint64
	LocalCommits uint64
	engine.SeqStats
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a Zyzzyva replica; LogTo attaches its write-ahead
// log.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{cfg: cfg, n: cfg.N, pending: make(map[uint64]*OrderReq)}
	seq, err := engine.NewSequencer[Request, *Request, *SpecResponse, *logEntry]("zyzzyva", &r.cfg, maxBatch, logTags, viewTags, host{r})
	if err != nil {
		return nil, err
	}
	r.sequencer = seq
	return r, nil
}

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.SeqStats = r.MergeStats(s.SeqStats)
	s.SpecExecuted += r.ExecutedCommands()
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
	case *OrderReq:
		r.handleOrderReq(ctx, m)
	case *CommitCert:
		r.handleCommitCert(ctx, m)
	default:
		if !r.Route(ctx, msg) {
			r.stats.DroppedInvalid++
		}
	}
	r.Sync()
}

// host is Zyzzyva's half of its Sequencer (engine.SeqHost,
// engine.ReplyRefresher, engine.ViewHost) and of its Lifecycle
// (checkpoint.go).
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
	return h.specResponse(ctx, e.View, e, i)
}

// RefreshReply resends a cached SPECRESPONSE only within its view. Either
// a cached response predates a view change (SPECRESPONSEs only match within
// one view, so a stale copy can never complete the client's quorum) or the
// entry executed before the NEW-VIEW that adopted it: the
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

// Ready executes every accepted slot in order, as on acceptance.
func (h host) Ready(ctx proc.Context) { h.executeLog(ctx) }

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
// computed (nil recomputes them — the out-of-order drain path). Entering
// the commands in the exactly-once table also stops a backup suspecting
// the primary over them: the ORDERREQ is evidence the primary is alive.
func (r *Replica) acceptOrderReq(ctx proc.Context, m *OrderReq, digests []types.Digest) {
	// Verify the history chain: a faulty primary that diverges produces a
	// mismatched hash, which surfaces as unequal responses at the client.
	want := chainHash(r.histHashAt(m.Seq-1), m.CmdDigest)
	if m.HistHash != want {
		r.stats.DroppedInvalid++
		return
	}
	r.Place(&logEntry{Batch: engine.Batch{Seq: m.Seq}}, m.View, m, m.CmdDigest, digests)
	r.executeLog(ctx)
}

// executeLog speculatively executes, in sequence order, the accepted
// entries above the executed watermark, extending the history chain.
func (r *Replica) executeLog(ctx proc.Context) {
	for {
		e, ok := r.Log[r.MaxExec+1]
		if !ok || e.Executed {
			return
		}
		e.histHash = chainHash(r.histHash, e.Digest)
		r.histHash = e.histHash
		r.Execute(ctx, e)
		r.MaybeEmit(ctx, r.histHash)
	}
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
	var result types.Result
	switch e, ok := r.Log[m.Seq]; {
	case ok && e.Executed:
		// Locate the certificate's command inside the (possibly batched)
		// assignment: the batch position is signed into every response.
		idx := int(m.Cert[0].BatchIdx)
		if idx >= len(e.Cmds) || e.Digests[idx] != m.CmdDigest || m.Cert[0].Batched != (len(e.Cmds) > 1) {
			return
		}
		e.cert = m.Cert
		result = e.Results[idx]
		r.Certify(e)
	case !ok && m.Seq <= r.StableCheckpoint():
		// The slot was truncated — meaning it executed under a stable
		// checkpoint, a strictly stronger durability guarantee than a
		// local commit. Acknowledge from the reply cache so a client whose
		// certificate raced log truncation can still finish.
		sr, ok := r.CachedReply(engine.ReqKey{Client: m.Client, TS: m.Timestamp})
		if !ok || sr.CmdDigest != m.CmdDigest {
			return
		}
		result = sr.Result
	default:
		// We have not executed this sequence number yet; the certificate
		// proves the order, but without the ORDERREQ we cannot execute.
		// The client's retransmission machinery will re-drive it.
		return
	}
	lc := &LocalCommit{View: r.View(), Seq: m.Seq, CmdDigest: m.CmdDigest, Replica: r.cfg.Self, Result: result}
	r.cfg.Costs.ChargeSign(ctx)
	lc.Sig = engine.SignBody(r.cfg.Auth, lc)
	r.stats.LocalCommits++
	r.Send(ctx, types.ClientNode(m.Client), lc)
}

// Zyzzyva's half of the view change (engine.ViewHost).

func (host) NewSlot(seq uint64) *logEntry { return &logEntry{Batch: engine.Batch{Seq: seq}} }

// Adopt executes a slot a NEW-VIEW ordered once it is contiguous; one that
// executed already is left as it is.
func (h host) Adopt(ctx proc.Context, _ *logEntry) { h.executeLog(ctx) }

// Certificate is the commit certificate the slot received, if any.
func (host) Certificate(e *logEntry) []codec.Message {
	if e.cert == nil {
		return nil
	}
	cert := make([]codec.Message, len(e.cert))
	for i, sr := range e.cert {
		cert[i] = sr
	}
	return cert
}

// CheckCert accepts a commit certificate — 2f+1 matching SPECRESPONSEs of
// distinct replicas — for one command of the batch frame orders.
func (h host) CheckCert(ctx proc.Context, seq uint64, frame codec.Message, _ types.Digest, cert []codec.Message) bool {
	or, ok := frame.(*OrderReq)
	if !ok {
		return false
	}
	first, ok := cert[0].(*SpecResponse)
	if !ok || int(first.BatchIdx) >= or.BatchSize() || first.Batched != (or.BatchSize() > 1) {
		return false
	}
	for _, c := range cert {
		if sr, ok := c.(*SpecResponse); !ok || !sr.Matches(first) {
			return false
		}
	}
	return h.CheckVotes(ctx, cert, seq, or.ReqAt(int(first.BatchIdx)).Cmd.Digest(), commQuorum(h.n), false)
}

// EnteredView forgets the out-of-order buffer: the old view's assignments
// are the new view's to make again.
func (h host) EnteredView(proc.Context, uint64) { clear(h.pending) }
