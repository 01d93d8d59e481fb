package core

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/graph"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// cmdKey identifies a client request for exactly-once bookkeeping.
type cmdKey struct {
	client types.ClientID
	ts     uint64
}

// Replica is one ezBFT replica: command-leader for its own clients'
// requests, participant for every other replica's instance space, and
// executor of the committed dependency graph. It implements proc.Process.
type Replica struct {
	engine.Shell // timers, gated sends, the write-ahead log
	cfg          ReplicaConfig
	n            int
	f            int

	log  *cmdLog
	deps *depIndex
	// nextSlot is the next free slot in this replica's own instance space.
	nextSlot uint64
	// owners tracks the current owner number of every instance space.
	owners []types.OwnerNumber

	// instByCmd maps a client request to the instance(s) ordering it.
	instByCmd map[cmdKey]types.InstanceID
	// replyCache keeps the last SPECREPLY sent per request, for
	// retransmission on retries (paper step 4.3).
	replyCache map[cmdKey]*SpecReply
	// window tracks the highest timestamp seen per client (the paper's
	// "Nitpick" in step 2, widened to a window so that open-loop clients may
	// pipeline several timestamps) and decides when instByCmd, replyCache
	// and executed let go of a request: see engine.RequestWindow and
	// releaseRequest.
	window *engine.RequestWindow

	// pendingExec holds committed-but-not-finally-executed entries.
	pendingExec map[types.InstanceID]*entry
	// executed memoizes final results per request for exactly-once
	// execution across duplicate instances (re-proposals after owner
	// changes).
	executed map[cmdKey]types.Result

	// batcher accumulates verified requests this replica, as
	// command-leader, will order in its next instance (BatchSize > 1).
	batcher *engine.Batcher[cmdKey, *Request]

	// deferredCommits buffers commit decisions whose certificate carries no
	// embedded SPECORDER (evidence-slimmed batched replies) and whose
	// instance this replica has not spec-ordered yet; they are re-applied
	// when the SPECORDER arrives.
	deferredCommits map[types.InstanceID][]certified

	// life is the log lifecycle — checkpoint votes, truncation and state
	// transfer — with ezBFT's half in checkpoint.go (logHost).
	life *lifecycle
	// executedTs tracks the highest finally-executed timestamp per client,
	// exported in state transfers for cross-transfer exactly-once semantics.
	executedTs map[types.ClientID]uint64
	// settled holds, per client, the timestamps whose execution the final
	// state reflects but no memo records any more: everything up to the
	// client's mark in an installed catch-up snapshot, and every executed
	// request releaseRequest has let go of. A duplicate instance of one — a
	// re-proposal after an owner change, or a Byzantine leader embedding an
	// old signed request in a fresh SPECORDER — is skipped at final
	// execution, so releasing the memo on schedule costs exactly-once
	// nothing.
	settled map[types.ClientID]tsSet
	// resendWait tracks RESENDREQs we forwarded and are waiting on
	// (paper step 4.3): cmdKey → armed timer.
	resendWait map[cmdKey]*resendState
	// depWait tracks dependency instances we are waiting on before final
	// execution; expiry triggers an owner change for the dependency's
	// space.
	depWait map[types.InstanceID]bool
	// commitWaitArmed is set while the one commit-wait timer is armed (see
	// commitfetch.go).
	commitWaitArmed bool

	rounds map[changeKey]*round // owner-change rounds (ownerchange.go)

	// execObserver, when set, is told of every final execution in execution
	// order. It is a test seam: no constructor of a running system (sim,
	// live, TCP) sets it, so a product replica keeps no record of what it
	// executed; RecordExecutions installs the one that fills execLog for
	// the cross-replica consistency checks.
	execObserver func(ExecRecord)
	execLog      []ExecRecord

	// execPending / execBlocked are per-pass scratch for tryExecute, and
	// execSeen / execStack / execClosure / execBlockers per-call scratch for
	// depClosure — reused across commits so contended workloads (which
	// re-run the pass over a large stuck backlog on every commit arrival)
	// do not rebuild them each time. execGraph extends the same idea to the
	// closure's dependency graph.
	execPending  []types.InstanceID
	execBlocked  map[types.InstanceID]bool
	execSeen     map[types.InstanceID]bool
	execStack    []*entry
	execClosure  []*entry
	execBlockers []types.InstanceID
	execGraph    *graph.DepGraph
	slotScratch  []uint64 // a space's sorted slots (retained)

	// freeEntries holds the log entries truncateSpace freed, zeroed, for
	// newEntry to hand out again (see entry for the rule that makes this
	// safe).
	freeEntries []*entry

	stats ReplicaStats
}

// resendState is one outstanding RESENDREQ forward.
type resendState struct {
	req   *Request
	timer proc.TimerID
}

// ReplicaStats exposes protocol counters for tests and experiments.
type ReplicaStats struct {
	Ordered         uint64 // commands this replica led
	SpecExecuted    uint64
	FastCommits     uint64
	SlowCommits     uint64
	FinalExecutions uint64
	OwnerChanges    uint64
	DeferredCommits uint64 // slim commit certificates parked for their SPECORDER
	CommitFetches   uint64 // COMMITFETCHes sent for entries left uncommitted (commitfetch.go)

	// Log-lifecycle observables: checkpoints, truncation, state transfer,
	// and DroppedInvalid, the messages rejected by validation.
	engine.LogStats
	TruncatedEntries uint64 // log entries freed by truncation
	TailsInstalled   uint64 // of CatchupsInstalled, incremental tail merges (no snapshot)

	// Durability observables (nonzero only with a configured store).
	engine.WALStats

	// Batch-size observables: batches this leader flushed, requests across
	// them (BatchedRequests/Batches = mean batch), and the largest single
	// batch.
	Batches         uint64
	BatchedRequests uint64
	MaxBatch        int
}

var _ proc.Process = (*Replica)(nil)

// NewReplica constructs a replica from its configuration.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Replica{
		Shell:           engine.NewShell(cfg.Self, cfg.N, cfg.Mute, cfg.Behavior, cfg.Store),
		cfg:             cfg,
		n:               cfg.N,
		f:               F(cfg.N),
		log:             newCmdLog(cfg.N),
		deps:            newDepIndex(),
		nextSlot:        1,
		owners:          make([]types.OwnerNumber, cfg.N),
		instByCmd:       make(map[cmdKey]types.InstanceID),
		replyCache:      make(map[cmdKey]*SpecReply),
		pendingExec:     make(map[types.InstanceID]*entry),
		executed:        make(map[cmdKey]types.Result),
		deferredCommits: make(map[types.InstanceID][]certified),
		executedTs:      make(map[types.ClientID]uint64),
		settled:         make(map[types.ClientID]tsSet),
		resendWait:      make(map[cmdKey]*resendState),
		depWait:         make(map[types.InstanceID]bool),
		rounds:          make(map[changeKey]*round),
	}
	r.window = engine.NewRequestWindow(r.releaseRequest)
	r.life = engine.NewLifecycle[*CheckpointMsg, *CatchupReq, *CatchupResp](engine.LogConfig{
		Self: cfg.Self, N: cfg.N, App: cfg.App, Auth: cfg.Auth, Costs: cfg.Costs,
		VoteRecord: walCkptVoteKind, Interval: cfg.CheckpointInterval, RetryBase: 2 * cfg.ResendTimeout,
	}, &r.Shell, logHost{r})
	for i := range r.owners {
		r.owners[i] = types.OwnerNumber(i)
	}
	r.execBlocked = make(map[types.InstanceID]bool)
	r.execGraph = graph.NewDepGraph()
	r.batcher = engine.NewBatcher[cmdKey, *Request](cfg.BatchSize, cfg.BatchDelay, r, r.flushBatch)
	return r, nil
}

// Stats returns a snapshot of the replica's counters, including the batch
// sizes the batcher actually produced.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	bs := r.batcher.Stats()
	s.Batches = bs.Flushes
	s.BatchedRequests = bs.Items
	s.MaxBatch = bs.MaxBatch
	dropped := s.DroppedInvalid
	s.LogStats = r.life.Stats()
	s.DroppedInvalid += dropped
	s.WALStats = r.WALStats()
	return s
}

// BatcherStats returns the leader-side batch-size observables.
func (r *Replica) BatcherStats() engine.BatcherStats { return r.batcher.Stats() }

// Receive implements proc.Process.
func (r *Replica) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	if !r.Inbound(ctx, from, msg) {
		return
	}
	switch m := msg.(type) {
	case *Request:
		r.handleRequest(ctx, from, m)
	case *SpecOrder:
		r.handleSpecOrder(ctx, from, m)
	case *CommitFast:
		r.handleCommitFast(ctx, m)
	case *Commit:
		r.handleCommit(ctx, m)
	case *ResendReq:
		r.handleResendReq(ctx, m)
	case *StartOwnerChange:
		r.handleStartOwnerChange(ctx, m)
	case *OwnerChange:
		r.handleOwnerChange(ctx, m)
	case *NewOwnerMsg:
		r.handleNewOwner(ctx, m)
	case *POM:
		r.handlePOM(ctx, m)
	case *CheckpointMsg:
		r.life.HandleCheckpoint(ctx, m)
	case *CatchupReq:
		r.life.HandleCatchupReq(ctx, m)
	case *CatchupResp:
		r.life.HandleCatchupResp(ctx, m)
	case *SOFetch:
		r.handleSOFetch(ctx, m)
	case *CommitFetch:
		r.handleCommitFetch(ctx, m)
	default:
		r.stats.DroppedInvalid++
	}
	r.Sync()
}

// drainPending accepts a space's buffered proposals while the next one is
// contiguous with its log.
func (r *Replica) drainPending(ctx proc.Context, sp *space) {
	for {
		nxt, ok := sp.pending[sp.maxSlot+1]
		if !ok {
			return
		}
		delete(sp.pending, sp.maxSlot+1)
		r.acceptSpecOrder(ctx, nxt, nil)
	}
}

// --- step 2: command-leader path ---

// handleRequest processes ⟨REQUEST, L, t, c⟩σc: either order it (we are the
// command-leader), resend a cached reply, or — for retry broadcasts —
// forward a RESENDREQ to the original leader (paper step 4.3).
func (r *Replica) handleRequest(ctx proc.Context, from types.NodeID, m *Request) {
	if !m.SigVerified() {
		// Unmarked (sim-delivered) requests are authenticated in-loop; a
		// transport-side verifier pool already checked marked ones.
		r.cfg.Costs.ChargeVerifyClient(ctx)
		if err := engine.VerifyBody(r.cfg.Auth, types.ClientNode(m.Cmd.Client), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	key := cmdKey{m.Cmd.Client, m.Cmd.Timestamp}

	// Exactly-once: a request we have already processed gets its cached
	// reply retransmitted (never re-ordered).
	if cached, ok := r.replyCache[key]; ok {
		r.cfg.Costs.ChargeSign(ctx)
		r.Send(ctx, types.ClientNode(m.Cmd.Client), cached)
		return
	}
	if r.window.Below(m.Cmd.Client, m.Cmd.Timestamp) {
		// Older than anything this client can still have in flight, and old
		// enough that the bookkeeping which would recognise it as executed
		// may be gone: ordering it (or chasing its original leader with a
		// RESENDREQ and a suspicion timer) would execute it a second time.
		r.stats.DroppedInvalid++
		return
	}

	if m.Orig != noOrig && m.Orig != r.cfg.Self {
		// Retry broadcast for another leader's request.
		r.handleRetryForOther(ctx, m)
		return
	}

	// We are the command-leader for this request.
	if r.lostOwnSpace() {
		r.handOff(ctx, m)
		return
	}
	if r.batcher.Queued(key) {
		return // already waiting in the current batch
	}
	r.batcher.Add(ctx, key, m)
}

// lostOwnSpace reports whether this replica can no longer order commands in
// its own instance space (it was suspected and the space frozen or taken
// over).
func (r *Replica) lostOwnSpace() bool {
	return r.log.space(r.cfg.Self).frozen || r.owners[r.cfg.Self].OwnerOf(r.n) != r.cfg.Self
}

// handOff passes a request this replica can no longer order to the next
// replica as a RESENDREQ — any replica can order it — as the client's retry
// would after its timer.
func (r *Replica) handOff(ctx proc.Context, m *Request) {
	r.Send(ctx, types.ReplicaNode((r.cfg.Self+1)%types.ReplicaID(r.n)), &ResendReq{Req: m.Clone(), Replica: r.cfg.Self})
}

// flushBatch opens one instance for everything the batcher accumulated.
// Ownership is re-checked at flush time: if this replica was suspected
// while the batch accumulated, every request in it is handed off.
func (r *Replica) flushBatch(ctx proc.Context, reqs []*Request) {
	if r.lostOwnSpace() {
		for _, m := range reqs {
			r.handOff(ctx, m)
		}
		return
	}
	r.leadBatch(ctx, reqs, r.cfg.Self)
}

// leadCommand orders a single request (the unbatched paper flow).
func (r *Replica) leadCommand(ctx proc.Context, m *Request, spaceID types.ReplicaID) {
	r.leadBatch(ctx, []*Request{m}, spaceID)
}

// leadBatch assigns the next instance in `space` to a batch of requests,
// collects the union of their dependencies, assigns the sequence number,
// speculatively executes, broadcasts one SPECORDER — one signature, one
// dependency set, one wire frame for the whole batch — and answers every
// client (paper steps 2–3 for the leader itself).
func (r *Replica) leadBatch(ctx proc.Context, reqs []*Request, spaceID types.ReplicaID) {
	inst := types.InstanceID{Space: spaceID, Slot: r.nextSlot}
	r.nextSlot++

	digests := make([]types.Digest, len(reqs))
	for i, m := range reqs {
		digests[i] = m.Cmd.Digest()
	}
	batchDigest := BatchDigest(digests)

	var deps types.InstanceSet
	var maxSeq types.SeqNumber
	for _, m := range reqs {
		d, s := r.deps.collect(m.Cmd, inst)
		deps.Union(d)
		if s > maxSeq {
			maxSeq = s
		}
	}
	seq := maxSeq + 1

	sp := r.log.space(spaceID)
	sp.extendHash(inst, batchDigest)
	so := &SpecOrder{
		Owner:     r.owners[spaceID],
		Inst:      inst,
		Deps:      deps,
		Seq:       seq,
		LogHash:   sp.logHash,
		CmdDigest: batchDigest,
		// Clone, not *reqs[0]: a retry-broadcast request is one decoded
		// value shared with every replica's verifier pool on the mesh, and a
		// plain struct copy would race with their atomic marks.
		Req: reqs[0].Clone(),
	}
	if len(reqs) > 1 {
		so.Batch = make([]Request, len(reqs)-1)
		for i, m := range reqs[1:] {
			so.Batch[i] = m.Clone()
		}
	}
	r.cfg.Costs.ChargeAdmitInstance(ctx)
	r.cfg.Costs.ChargeSign(ctx)
	so.Sig = engine.SignBody(r.cfg.Auth, so)

	e := r.newEntry()
	*e = entry{
		inst:      inst,
		owner:     so.Owner,
		cmd:       reqs[0].Cmd,
		cmdDigest: batchDigest,
		deps:      deps,
		seq:       seq,
		status:    StatusSpecOrdered,
	}
	if len(reqs) > 1 {
		e.extra = make([]types.Command, len(reqs)-1)
		for i, m := range reqs[1:] {
			e.extra[i] = m.Cmd
		}
		e.cmdDigests = digests
	}
	e.so = so
	r.log.put(e)
	r.armCommitWait(ctx)
	for _, m := range reqs {
		r.deps.update(inst, m.Cmd, seq)
		r.instByCmd[cmdKey{m.Cmd.Client, m.Cmd.Timestamp}] = inst
		r.window.Seen(m.Cmd.Client, m.Cmd.Timestamp)
	}
	r.stats.Ordered += uint64(len(reqs))
	// Durability point: the proposal must survive a crash before any peer
	// or client can act on it.
	r.walHist(walOrderKind, e)

	r.Broadcast(ctx, so)

	// The leader speculatively executes and answers the clients like any
	// other replica (it is one of the 3f+1 fast-quorum members).
	r.specExecuteAndReply(ctx, e, so)
	for _, m := range reqs {
		r.resolveResendWait(cmdKey{m.Cmd.Client, m.Cmd.Timestamp}, spaceID)
	}
}

// handleRetryForOther implements paper step 4.3 at a non-leader replica:
// forward a RESENDREQ to the original leader and arm a timer; if the
// SPECORDER does not arrive in time, initiate an owner change. If the
// original leader's space has already been frozen, order the command in our
// own space instead (every replica has its own instance space it can use).
func (r *Replica) handleRetryForOther(ctx proc.Context, m *Request) {
	orig := m.Orig
	if orig < 0 || int(orig) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	key := cmdKey{m.Cmd.Client, m.Cmd.Timestamp}
	if r.log.space(orig).frozen || r.owners[orig].OwnerOf(r.n) != orig {
		// The faulty leader's space is already frozen; the client's retry
		// rotation will direct the request at a live leader, so nothing to
		// forward here.
		return
	}
	if _, waiting := r.resendWait[key]; waiting {
		return
	}
	fwd := m.Clone()
	rs := &resendState{req: m}
	rs.timer = r.AfterTimer(ctx, r.cfg.ResendTimeout, func(ctx proc.Context) {
		if _, still := r.resendWait[key]; !still {
			return
		}
		delete(r.resendWait, key)
		r.initiateOwnerChange(ctx, orig)
	})
	r.resendWait[key] = rs
	r.Send(ctx, types.ReplicaNode(orig), &ResendReq{Req: fwd, Replica: r.cfg.Self})
}

// resolveResendWait cancels a pending resend timer once the request has
// been ordered by the replica we were waiting on. Ordering by any other
// replica (retry rotation) does not clear the suspicion: per paper step
// 4.3, the timer waits for the original leader's SPECORDER specifically.
func (r *Replica) resolveResendWait(key cmdKey, orderedBy types.ReplicaID) {
	rs, ok := r.resendWait[key]
	if !ok || rs.req.Orig != orderedBy {
		return
	}
	delete(r.resendWait, key)
	r.ForgetTimer(rs.timer)
}

// handleResendReq processes ⟨RESENDREQ, m, Rj⟩ at the original leader: if
// the request is already ordered, retransmit its SPECORDER to the
// forwarder; otherwise order it now.
func (r *Replica) handleResendReq(ctx proc.Context, m *ResendReq) {
	key := cmdKey{m.Req.Cmd.Client, m.Req.Cmd.Timestamp}
	if r.batcher.Queued(key) {
		// The request is waiting in the current batch; flush now so the
		// forwarder (and its owner-change timer) sees the SPECORDER quickly.
		r.batcher.Flush(ctx)
	}
	if inst, ok := r.instByCmd[key]; ok {
		if e := r.log.get(inst); e != nil && e.so != nil {
			r.Send(ctx, types.ReplicaNode(m.Replica), e.so)
		}
		return
	}
	if r.window.Below(m.Req.Cmd.Client, m.Req.Cmd.Timestamp) {
		r.stats.DroppedInvalid++ // see handleRequest: too old to order again
		return
	}
	if !m.Req.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ClientNode(m.Req.Cmd.Client), &m.Req, m.Req.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	if r.lostOwnSpace() {
		return
	}
	reqCopy := m.Req.Clone()
	r.leadCommand(ctx, &reqCopy, r.cfg.Self)
}

// --- step 3: participant path ---

// handleSpecOrder processes a command-leader's proposal: validate, update
// dependencies and sequence number from the local log, speculatively
// execute, and reply to the client (paper step 3). Out-of-order proposals
// are buffered until the instance space is contiguous.
func (r *Replica) handleSpecOrder(ctx proc.Context, from types.NodeID, m *SpecOrder) {
	spaceID := m.Inst.Space
	if spaceID < 0 || int(spaceID) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	sp := r.log.space(spaceID)
	if sp.frozen || sp.suspended || m.Owner != r.owners[spaceID] {
		r.stats.DroppedInvalid++
		return
	}
	owner := m.Owner.OwnerOf(r.n)
	// Only a real batch's digests are kept (acceptSpecOrder) and so live on
	// the heap; a batch of one digests into a buffer on the stack.
	var one [1]types.Digest
	digests, kept := one[:], []types.Digest(nil)
	if m.BatchSize() > 1 {
		kept = make([]types.Digest, m.BatchSize())
		digests = kept
	}
	if m.SigVerified() {
		// A transport-side verifier pool already checked the signatures in
		// parallel; only the digest binding below remains.
		for i := range digests {
			digests[i] = m.ReqAt(i).Cmd.Digest()
		}
	} else {
		// One replica-signature verification per batch; the embedded client
		// requests are authenticated with the participant's own MAC-vector
		// entries (the paper's HMAC usage), which cost microseconds.
		// Batching amortizes the expensive check across the whole batch.
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(owner), m, m.Sig); err != nil {
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
	if m.CmdDigest != BatchDigest(digests) {
		r.stats.DroppedInvalid++
		return
	}

	// Paper step 3 validation: I must be the next slot in the leader's
	// space (maxI + 1). Later slots are buffered; earlier ones are
	// duplicates or equivocation and are dropped.
	next := sp.maxSlot + 1
	switch {
	case m.Inst.Slot == next:
		r.acceptSpecOrder(ctx, m, kept)
		r.drainPending(ctx, sp)
	case m.Inst.Slot > next:
		sp.pending[m.Inst.Slot] = m
	default:
		r.stats.DroppedInvalid++
	}
}

// acceptSpecOrder records a validated proposal and replies to its clients.
// digests carries the per-command digests handleSpecOrder already computed
// (nil for a batch of one, which keeps none, and for proposals drained from
// the out-of-order buffer, which recompute them).
func (r *Replica) acceptSpecOrder(ctx proc.Context, m *SpecOrder, digests []types.Digest) {
	if existing := r.log.get(m.Inst); existing != nil {
		return // already known (e.g., installed by a commit certificate)
	}

	// Update dependencies and sequence number from the local log (paper:
	// "updates the dependencies and sequence number according to its log"),
	// over every command of the batch.
	deps := m.Deps
	seq := m.Seq
	for i := 0; i < m.BatchSize(); i++ {
		localDeps, localMax := r.deps.collect(m.ReqAt(i).Cmd, m.Inst)
		deps.Union(localDeps)
		if localMax+1 > seq {
			seq = localMax + 1
		}
	}

	e := r.newEntry()
	*e = entry{
		inst:      m.Inst,
		owner:     m.Owner,
		cmd:       m.Req.Cmd,
		cmdDigest: m.CmdDigest,
		deps:      deps,
		seq:       seq,
		status:    StatusSpecOrdered,
	}
	if len(m.Batch) > 0 {
		e.extra = make([]types.Command, len(m.Batch))
		for i := range m.Batch {
			e.extra[i] = m.Batch[i].Cmd
		}
		if digests == nil {
			digests = m.CmdDigests()
		}
		e.cmdDigests = digests
	}
	e.so = m
	r.log.put(e)
	r.armCommitWait(ctx)
	for i := 0; i < m.BatchSize(); i++ {
		cmd := m.ReqAt(i).Cmd
		r.deps.update(m.Inst, cmd, seq)
		r.instByCmd[cmdKey{cmd.Client, cmd.Timestamp}] = m.Inst
		r.window.Seen(cmd.Client, cmd.Timestamp)
	}
	// Durability point: the acceptance must survive a crash before the
	// SPECREPLY vouches for it to the client.
	r.walHist(walOrderKind, e)
	r.specExecuteAndReply(ctx, e, m)
	for i := 0; i < m.BatchSize(); i++ {
		cmd := m.ReqAt(i).Cmd
		r.resolveResendWait(cmdKey{cmd.Client, cmd.Timestamp}, m.Inst.Space)
	}
	r.drainDeferredCommits(ctx, m.Inst)
}

// drainDeferredCommits applies the commit decisions that raced ahead of
// the instance's content (their evidence-slimmed certificates could not
// install the entry on their own). Called wherever the instance becomes
// known: the SPECORDER arriving, or a full-evidence certificate installing
// the entry.
func (r *Replica) drainDeferredCommits(ctx proc.Context, inst types.InstanceID) {
	dcs, ok := r.deferredCommits[inst]
	if !ok {
		return
	}
	delete(r.deferredCommits, inst)
	for _, m := range dcs {
		r.commitEntry(ctx, inst, m)
		if _, fast := m.(*CommitFast); fast {
			r.stats.FastCommits++
		} else {
			r.stats.SlowCommits++
		}
	}
	r.tryExecute(ctx)
}

// specExecuteAndReply speculatively executes an entry's commands in batch
// order on the latest state and sends each command's SPECREPLY to its
// client. Evidence slimming: the full SPECORDER rides only in the
// BatchIdx-0 reply of a batched instance; the rest carry the signed SORef
// digest, so per-batch reply traffic is O(k) instead of O(k²) request
// bytes per replica.
func (r *Replica) specExecuteAndReply(ctx proc.Context, e *entry, so *SpecOrder) {
	batched := e.nCmds() > 1
	for i := 0; i < e.nCmds(); i++ {
		cmd := e.cmdAt(i)
		r.cfg.Costs.ChargeExecute(ctx)
		res := r.cfg.App.SpecExecute(cmd)
		e.setSpecResult(i, res)
		r.stats.SpecExecuted++

		reply := &SpecReply{
			Owner:     e.owner,
			Inst:      e.inst,
			Deps:      e.deps,
			Seq:       e.seq,
			CmdDigest: e.digestAt(i),
			Client:    cmd.Client,
			Timestamp: cmd.Timestamp,
			Replica:   r.cfg.Self,
			Result:    res,
			Batched:   batched,
			BatchIdx:  uint32(i),
		}
		if batched {
			reply.SORef = e.cmdDigest
			if i == 0 {
				reply.SO = so
			}
		} else {
			reply.SO = so
		}
		r.cfg.Costs.ChargeSign(ctx)
		reply.Sig = engine.SignBody(r.cfg.Auth, reply)
		r.replyCache[cmdKey{cmd.Client, cmd.Timestamp}] = reply
		r.Send(ctx, types.ClientNode(cmd.Client), reply)
	}
	e.specExecuted = true
}

// --- step 5: commit paths ---

// handleCommitFast processes ⟨COMMITFAST, c, I, CC⟩: validate the SPECREPLY
// and its 3f+1 signers, mark committed, and enqueue final execution. No
// reply is sent (the client already returned).
func (r *Replica) handleCommitFast(ctx proc.Context, m *CommitFast) {
	// 3f+1 replies agree by definition, so the certificate is always the
	// compact form, even with no signer pairs.
	if len(m.Cert) != 1 || !r.validateCert(ctx, m.Inst, m, FastQuorum(r.n)) {
		r.stats.DroppedInvalid++
		return
	}
	if r.log.get(m.Inst) == nil && m.Cert[0].SO == nil {
		// Evidence-slimmed certificate for an instance whose SPECORDER has
		// not arrived yet: park the decision until it does.
		r.deferCommit(m.Inst, m)
		return
	}
	r.commitEntry(ctx, m.Inst, m)
	r.stats.FastCommits++
	r.tryExecute(ctx)
	// This certificate may have installed the entry that parked slim
	// decisions were waiting for.
	if r.log.get(m.Inst) != nil {
		r.drainDeferredCommits(ctx, m.Inst)
	}
}

// handleCommit processes the slow-path ⟨COMMIT, c, I, D′, S′, CC⟩σc:
// adopt the dependencies and sequence number the client combined from its
// certificate (refused unless the replies combine to them), invalidate the
// speculative result, and enqueue final execution; the COMMITREPLY is sent
// after final execution.
func (r *Replica) handleCommit(ctx proc.Context, m *Commit) {
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ClientNode(m.Client), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	if !r.validateCert(ctx, m.Inst, m, SlowQuorum(r.n)) {
		r.stats.DroppedInvalid++
		return
	}
	if r.log.get(m.Inst) == nil && m.Cert[0].SO == nil {
		r.deferCommit(m.Inst, m)
		return
	}
	r.commitEntry(ctx, m.Inst, m)
	r.stats.SlowCommits++
	r.tryExecute(ctx)
	// This certificate may have installed the entry that parked slim
	// decisions were waiting for.
	if r.log.get(m.Inst) != nil {
		r.drainDeferredCommits(ctx, m.Inst)
	}
}

// maxDeferredPerInstance bounds the commit decisions parked per unknown
// instance: legitimately there are at most two (one fast, one slow) per
// client of the batch, and a batch holds at most MaxBatchSize clients.
// Every deferred decision is backed by a validated 2f+1 certificate, so
// the bound is a memory backstop, not a spam defense.
const maxDeferredPerInstance = 2 * MaxBatchSize

// deferCommit parks a validated commit decision that cannot be applied yet
// because its certificate is evidence-slimmed (no embedded SPECORDER) and
// the instance is unknown locally; acceptSpecOrder re-applies it when the
// proposal arrives (an owner change of the space drops it instead).
// Decisions for instances whose SPECORDER never arrives are re-driven by
// the existing resend and owner-change machinery. A replayed decision from
// the same client replaces its predecessor rather than accumulating, so a
// spammed COMMIT can neither grow memory nor apply twice.
func (r *Replica) deferCommit(inst types.InstanceID, m certified) {
	if inst.Slot <= r.log.space(inst.Space).truncated {
		return // below the truncation point: stable-executed long ago
	}
	dcs := r.deferredCommits[inst]
	_, fast := m.(*CommitFast)
	cert, _ := m.certificate()
	for i, dc := range dcs {
		dcCert, _ := dc.certificate()
		if _, dcFast := dc.(*CommitFast); dcFast == fast && dcCert[0].Client == cert[0].Client {
			dcs[i] = m
			return
		}
	}
	if len(dcs) >= maxDeferredPerInstance {
		r.stats.DroppedInvalid++
		return
	}
	r.deferredCommits[inst] = append(dcs, m)
	r.stats.DeferredCommits++
}

// soBound reports whether a certificate's first reply and the SPECORDER
// riding outside its signed body name the same proposal, as untampered do.
func soBound(first *SpecReply) bool {
	return !first.Batched || first.SO == nil || first.SO.CmdDigest == first.SORef
}

// validateCert is the loop's one check of a commit certificate — a
// COMMITFAST's, a COMMIT's in either form, or one an owner-change history
// carries: at least quorum distinct replicas vouching for the same command
// of the same proposal at inst, each signature valid (verifyCertSigs, unless
// the message is marked). Signer pairs vouch for the first reply's very
// body, so they agree with it by construction; replies carried whole may
// differ in dependencies, sequence number and result, never in what they
// vouch for. A COMMIT must also claim the decision its replies combine to
// (decidedByCert).
func (r *Replica) validateCert(ctx proc.Context, inst types.InstanceID, m certified, quorum int) bool {
	cert, sigs := m.certificate()
	if !certShaped(cert, sigs) || len(cert)+len(sigs) < quorum {
		return false
	}
	if c, slow := m.(*Commit); slow && !decidedByCert(c) {
		return false
	}
	// Certificates are MAC-authenticated in the modeled deployment; charge
	// one verification (the cryptographic checks below still run).
	r.cfg.Costs.ChargeVerify(ctx, 1)
	first := cert[0]
	var signers engine.ReplicaSet
	for _, sr := range cert {
		if sr.Inst != inst || !signers.Add(sr.Replica, r.n) {
			return false
		}
		// A certificate mixing replies built from different batches (an
		// equivocating leader's doing) is not a quorum for anything, and
		// mixed layouts would not even survive the wire. The signed SORef
		// keeps this check sound for the replies that carry no SPECORDER,
		// which is all but the first.
		if sr.Batched != first.Batched || sr.BatchIdx != first.BatchIdx ||
			sr.CmdDigest != first.CmdDigest || sr.SORef != first.SORef {
			return false
		}
	}
	for _, s := range sigs {
		if !signers.Add(s.Replica, r.n) {
			return false
		}
	}
	return soBound(first) && (m.SigVerified() || verifyCertSigs(r.cfg.Auth, cert, sigs))
}

// commitEntry installs a validated certificate's decision — the final
// dependencies and sequence number — for an instance, creating the entry
// from the certificate if this replica never saw the SPECORDER, and keeps
// the certificate in the entry before the decision is logged. The whole
// batch commits as a unit; the certificate's first reply identifies its
// command via its batch index. A COMMIT's client is owed a COMMITREPLY after
// final execution.
func (r *Replica) commitEntry(ctx proc.Context, inst types.InstanceID, m certified) {
	cert, _ := m.certificate()
	from := cert[0]
	deps, seq := from.Deps, from.Seq // a COMMITFAST's: every signer sent them
	commit, slow := m.(*Commit)
	if slow {
		deps, seq = commit.Deps, commit.Seq // the replies' combination (validateCert)
	}
	if inst.Slot <= r.log.space(inst.Space).truncated {
		// A late duplicate decision for an instance the stable checkpoint
		// already covers (2f+1 executed it) and truncation freed; nothing
		// left to do — re-installing it would regrow the log.
		return
	}
	e := r.log.get(inst)
	if e == nil {
		if from.SO == nil {
			r.stats.DroppedInvalid++
			return
		}
		so := from.SO
		// The SPECORDER travels outside the reply's signed body, so bind it
		// before trusting it as the instance's content: it must be for this
		// instance, be the proposal the signed replies vouch for (SORef for
		// batched replies, the command digest at the claimed batch position
		// always), carry a digest that binds exactly its embedded requests,
		// and be signed by the owner. Without these checks a Byzantine
		// client could swap an equivocating leader's other proposal into an
		// otherwise-valid certificate and commit different batches on
		// different replicas.
		ds := so.CmdDigests()
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if so.Inst != inst ||
			(from.Batched && so.CmdDigest != from.SORef) ||
			so.CmdDigest != BatchDigest(ds) ||
			int(from.BatchIdx) >= len(ds) || ds[from.BatchIdx] != from.CmdDigest ||
			(!so.SigVerified() &&
				engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(so.Owner.OwnerOf(r.n)), so, so.Sig) != nil) {
			r.stats.DroppedInvalid++
			return
		}
		e = r.newEntry()
		*e = entry{
			inst:      inst,
			owner:     from.Owner,
			cmd:       so.Req.Cmd,
			cmdDigest: so.CmdDigest,
			so:        so,
		}
		if len(so.Batch) > 0 {
			e.extra = make([]types.Command, len(so.Batch))
			for i := range so.Batch {
				e.extra[i] = so.Batch[i].Cmd
			}
			e.cmdDigests = so.CmdDigests()
		}
		r.log.put(e)
		for i := 0; i < e.nCmds(); i++ {
			cmd := e.cmdAt(i)
			r.instByCmd[cmdKey{cmd.Client, cmd.Timestamp}] = inst
			r.window.Seen(cmd.Client, cmd.Timestamp)
		}
		// Installed past maxSlot+1, an entry leaves a hole behind it.
		r.armCommitWait(ctx)
	}
	idx := int(from.BatchIdx)
	if idx >= e.nCmds() {
		r.stats.DroppedInvalid++
		return
	}
	if e.status >= StatusCommitted && e.digestAt(idx) != from.CmdDigest {
		// The instance was already finalized with a different command at
		// that batch position (e.g. a no-op installed by an owner change); a
		// conflicting late commit certificate cannot override it. The client
		// will re-drive its request at a live leader.
		r.stats.DroppedInvalid++
		return
	}
	if ref := from.ProposalRef(); ref != (types.Digest{}) && e.status < StatusCommitted && e.cmdDigest != ref {
		// The certificate was built from a different batch than the one
		// this replica spec-ordered at the instance — conflicting evidence
		// from an equivocating leader. Committing either version here could
		// finalize different commands at the same position on different
		// replicas; leave the slot to the owner-change protocol (driven by
		// the clients' POMs and the resend timeouts) to arbitrate.
		r.stats.DroppedInvalid++
		return
	}
	if e.status >= StatusExecuted {
		// Already finally executed; a late slow-path commit still needs its
		// reply.
		if slow {
			r.sendCommitReply(ctx, e, idx, commit.Client)
		}
		return
	}
	if e.status == StatusCommitted {
		// A second commit decision for an already-committed instance:
		// several clients of one batch may slow-commit independently (and a
		// retrying client may commit twice), each combining a different
		// 2f+1 quorum's dependency sets. Merge deterministically — union of
		// dependencies, maximum sequence number — so the installed decision
		// is independent of arrival order; a dependency over-approximation
		// only makes execution wait for more commits, never reorders it.
		e.deps.Union(deps)
		if seq > e.seq {
			e.seq = seq
		}
	} else {
		e.deps = deps
		e.seq = seq
		e.status = StatusCommitted
	}
	seq = e.seq
	// The certificate is this replica's answer to a COMMITFETCH and, for a
	// COMMIT, its Condition-1 proof in an owner change: it is logged with
	// the decision.
	if slow {
		e.needCommitReply(idx, commit.Client)
		e.clientCommit = commit
	} else {
		e.fastCommit = m.(*CommitFast)
	}
	for i := 0; i < e.nCmds(); i++ {
		r.deps.update(inst, e.cmdAt(i), seq)
	}
	// Durability point: the final (possibly merged) decision must survive a
	// crash before execution acts on it.
	r.walHist(walCommitKind, e)
	r.pendingExec[inst] = e
}

// sendCommitReply answers a slow-path client after final execution of the
// idx'th command of the entry's batch.
func (r *Replica) sendCommitReply(ctx proc.Context, e *entry, idx int, to types.ClientID) {
	reply := &CommitReply{
		Inst:      e.inst,
		CmdDigest: e.digestAt(idx),
		Replica:   r.cfg.Self,
		Result:    e.finalResultAt(idx),
	}
	r.cfg.Costs.ChargeSign(ctx)
	reply.Sig = engine.SignBody(r.cfg.Auth, reply)
	r.Send(ctx, types.ClientNode(to), reply)
}
