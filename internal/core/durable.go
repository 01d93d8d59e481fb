package core

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// This file integrates the pluggable durability layer (internal/store) into
// the ezBFT replica: what gets write-ahead-logged, when the store snapshot
// is cut, and how a restarted replica rebuilds itself from the two.
//
// # What gets logged
//
// A record is appended *before* the replica acts on each ordering-critical
// event, so a crash can lose at most the in-flight handler's work (see the
// group-commit note below):
//
//   - walOrderKind: an accepted SPECORDER — own proposal or a participant's
//     acceptance — as a HistEntry with the leader-signed proof, logged before
//     the SPECORDER is broadcast or the SPECREPLY sent;
//   - walCommitKind: an installed commit decision (final dependencies and
//     sequence number) as a HistEntry, logged when the entry reaches
//     StatusCommitted and on every later deterministic merge;
//   - walExecKind: one entry's final execution with its per-command
//     (client, timestamp) pairs — the durable increments of the per-client
//     executed-timestamp table whose full form rides in the snapshot;
//   - walCkptVoteKind: a validated CHECKPOINT vote (own or a peer's), so the
//     tracker's quorum state and the stable low-water marks survive.
//
// # Snapshot cut
//
// When a checkpoint becomes 2f+1-stable the replica persists its entire
// transferable state — the same CatchupResp payload a lagging peer would be
// served: per-space lifecycle state, the checkpoint proof, the application
// snapshot, the executed-timestamp table, and the retained log suffix. The
// store deletes every WAL segment the cut subsumes, so disk usage is
// bounded by one snapshot plus the WAL written since the last stable
// checkpoint — the durable mirror of in-memory log truncation.
//
// # Group commit
//
// Appends buffer; the sync point is the *first outbound send* after the
// appends (send/broadcastReplicas trigger the pending sync before the
// message reaches the wire), with an end-of-handler sweep (Receive/OnTimer)
// covering handlers that log without sending. Records precede the messages
// derived from them, so a handler's whole record burst still normally costs
// one fsync — but nothing a peer or client can act on ever escapes before
// the state backing it is stable. The crash window this leaves open is the
// final handler before the crash: records whose derived messages had not
// been sent yet — and only those — may be lost. Recovery tolerates that
// tail loss by design: the replica rejoins one handler behind and fetches
// the difference through the ordinary CATCHUP path (served as a tail
// transfer, not a wholesale install).
//
// # Recovery
//
// Init (which the runtimes invoke before any delivery) checks the store:
// if it holds state, the replica restores the snapshot through the same
// installer the catch-up path uses (minus signature re-verification — the
// replica wrote those bytes itself), then replays the WAL in LSN order with
// outbound messages suppressed, re-running acceptance, commit, and vote
// handling idempotently. Final execution is *re-derived*, not replayed:
// committed entries above the snapshot re-execute deterministically through
// the ordinary execution path, which also rebuilds the exactly-once memo
// and the executed-timestamp table in lockstep with the application state
// (replaying the table alone could claim executions the restored state does
// not reflect). Replayed records are not re-appended — the surviving WAL
// already covers them, and replay is idempotent, so a crash during or
// after recovery just replays again. Afterwards the replica compares its
// executed prefix against the replayed stable marks and requests a
// CATCHUP for any space still behind — receiving only the tail.
//
// # Degradation
//
// The first store error permanently disables logging (walErr): the replica
// keeps running non-durably rather than wedging consensus on a full disk,
// and the operator sees the error through ReplicaStats.WALFailed. A replica
// that restarts from such a store recovers the prefix written before the
// failure and catch-ups the rest.
const (
	walOrderKind    uint8 = 1 // accepted SPECORDER (HistEntry + proof)
	walCommitKind   uint8 = 2 // installed commit decision (HistEntry)
	walExecKind     uint8 = 3 // final execution (inst + client timestamps)
	walCkptVoteKind uint8 = 4 // validated CHECKPOINT vote (wire message)
)

// walAppend appends one framed record, buffering until the handler-end
// sync. A store error permanently degrades the replica to non-durable.
func (r *Replica) walAppend(kind uint8, data []byte) {
	if r.cfg.Store == nil || r.recovering || r.walErr != nil {
		return
	}
	if _, err := r.cfg.Store.Append(kind, data); err != nil {
		r.walErr = err
		return
	}
	r.walDirty = true
	r.stats.WALRecords++
}

// walSync is the group-commit point: one fsync per handler invocation that
// appended, called at the end of Receive and OnTimer.
func (r *Replica) walSync() {
	if r.cfg.Store == nil || !r.walDirty || r.walErr != nil {
		return
	}
	r.walDirty = false
	if err := r.cfg.Store.Sync(); err != nil {
		r.walErr = err
	}
}

// walHist logs an entry's current protocol state (acceptance or commit) as
// a HistEntry record.
func (r *Replica) walHist(kind uint8, e *entry) {
	if r.cfg.Store == nil || r.recovering || r.walErr != nil {
		return
	}
	h := HistEntry{
		Inst:  e.inst,
		Cmd:   e.cmd,
		Batch: e.extra,
		Deps:  e.deps,
		Seq:   e.seq,
		Owner: e.owner,
		SO:    e.so,
	}
	if kind == walCommitKind {
		h.Status = HistCommitted
		h.ClientCommit = e.clientCommit
	} else {
		h.Status = HistSpecOrdered
	}
	w := codec.GetWriter()
	h.marshalTo(w)
	r.walAppend(kind, w.Bytes())
	codec.PutWriter(w)
}

// walExec logs one entry's final execution: the instance and each ordered
// command's (client, timestamp) pair.
func (r *Replica) walExec(e *entry) {
	if r.cfg.Store == nil || r.recovering || r.walErr != nil {
		return
	}
	w := codec.GetWriter()
	w.Instance(e.inst)
	w.Uvarint(uint64(e.nCmds()))
	for i := 0; i < e.nCmds(); i++ {
		cmd := e.cmdAt(i)
		w.Int32(int32(cmd.Client))
		w.Uvarint(cmd.Timestamp)
	}
	r.walAppend(walExecKind, w.Bytes())
	codec.PutWriter(w)
}

// walVote logs one validated CHECKPOINT vote as its tagged wire encoding.
func (r *Replica) walVote(m *CheckpointMsg) {
	if r.cfg.Store == nil || r.recovering || r.walErr != nil {
		return
	}
	r.walAppend(walCkptVoteKind, codec.Marshal(m))
}

// persistSnapshot cuts the store snapshot at the replica's current
// transferable state — the same payload a CATCHUP-RESP carries — and lets
// the store discard the WAL prefix the cut subsumes. Called when a
// checkpoint becomes stable; suppressed during recovery (the state is
// still partial there, and the surviving WAL must not be discarded under
// it).
//
// Known cost: the cut runs synchronously inside the message handler, so on
// large application state the replica loop stalls for one serialize (+
// fsync when enabled) per checkpoint interval — visible as a periodic
// latency spike in the durability experiment. Moving the write off the
// critical path needs a completion barrier before the store may delete the
// WAL below the cut; see ROADMAP.md.
func (r *Replica) persistSnapshot() {
	if r.cfg.Store == nil || r.recovering || r.walErr != nil {
		return
	}
	snap, ok := types.Application(r.cfg.App).(types.Snapshotter)
	if !ok {
		return
	}
	resp := r.buildTransferState(snap, nil)
	data := codec.AppendMarshal(make([]byte, 0, resp.sizeHint()), resp)
	if err := r.cfg.Store.SaveSnapshot(data); err != nil {
		r.walErr = err
		return
	}
	r.walDirty = false // the snapshot write persisted everything pending
}

// recoverFromStore rebuilds the replica from its durable state: install
// the snapshot, replay the WAL above its cut, re-derive final execution,
// and request a tail catch-up for anything still missing. Runs from Init
// with r.recovering set, which suppresses every outbound message, WAL
// re-append, and snapshot cut.
func (r *Replica) recoverFromStore(ctx proc.Context) {
	r.recovering = true
	if data, _, err := r.cfg.Store.LoadSnapshot(); err == nil && len(data) > 0 {
		if msg, err := codec.Unmarshal(data); err == nil {
			if resp, ok := msg.(*CatchupResp); ok && len(resp.Spaces) == r.n {
				if snap, ok := types.Application(r.cfg.App).(types.Snapshotter); ok {
					// Own bytes: install without re-verifying proofs, through
					// the same path a validated network transfer takes.
					r.installTransfer(ctx, resp, snap)
					// Re-seed the tracker's stable marks from the persisted
					// proof so post-restart catch-up decisions see them.
					for _, v := range resp.Proof {
						r.ckpt.Record(engine.CheckpointSpace(v.Space), v.Slot, v.Replica, v.Digest, v)
					}
				}
			}
		}
	}
	if err := r.cfg.Store.Replay(func(rec store.Record) error {
		r.replayRecord(ctx, rec)
		return nil
	}); err != nil {
		// A read error mid-replay leaves the replica only partially
		// recovered; latch it so the degradation is observable (WALFailed)
		// and no new records are appended on top of a prefix that was never
		// applied. The catch-up sweep below still closes the gap.
		r.walErr = err
	}
	// Never reuse an own-space slot the replayed log says is taken.
	if own := r.log.space(r.cfg.Self); own.maxSlot+1 > r.nextSlot {
		r.nextSlot = own.maxSlot + 1
	}
	r.tryExecute(ctx)
	r.recovering = false
	r.stats.Recoveries++
	// Commits that were in flight when the previous incarnation stopped
	// never come again from their clients; fetch them (commitfetch.go).
	r.armCommitWait(ctx)
	// The durable prefix may end short of the cluster's stable frontier
	// (the last pre-crash handler's records, at most, are lost). Ask a
	// checkpoint voter for the difference; with the request's per-space
	// marks attached, the responder serves only the tail.
	for i := 0; i < r.n; i++ {
		if st := r.ckpt.Stable(engine.CheckpointSpace(i)); st != nil &&
			r.log.space(types.ReplicaID(i)).execMark < st.Mark {
			r.requestCatchup(ctx, st)
		}
	}
}

// replayRecord applies one WAL record. Replay is idempotent: records whose
// state the snapshot (or an earlier duplicate) already covers are skipped
// by the same guards the live handlers use.
func (r *Replica) replayRecord(ctx proc.Context, rec store.Record) {
	switch rec.Kind {
	case walOrderKind, walCommitKind:
		rd := codec.NewReader(rec.Data)
		h, err := decodeHistEntry(rd)
		if err != nil {
			return
		}
		r.adoptHist(ctx, &h, true)
	case walExecKind:
		rd := codec.NewReader(rec.Data)
		inst := rd.Instance()
		n := rd.Uvarint()
		if rd.Err() != nil || n > maxBatch {
			return
		}
		_ = inst // execution itself is re-derived deterministically
		for i := uint64(0); i < n; i++ {
			c := types.ClientID(rd.Int32())
			ts := rd.Uvarint()
			// Only the retransmission-window watermark is restored here;
			// executedTs must stay in lockstep with the application state,
			// which the re-derived execution rebuilds.
			if rd.Err() == nil {
				r.window.Seen(c, ts)
			}
		}
	case walCkptVoteKind:
		msg, err := codec.Unmarshal(rec.Data)
		if err != nil {
			return
		}
		cm, ok := msg.(*CheckpointMsg)
		if !ok {
			return
		}
		// Logged votes were validated before logging; re-tally without
		// re-verifying. applyStableCheckpoint's catch-up and snapshot
		// side effects are recovery-gated.
		if st := r.ckpt.Record(engine.CheckpointSpace(cm.Space), cm.Slot, cm.Replica, cm.Digest, cm); st != nil {
			r.applyStableCheckpoint(ctx, st)
		}
	}
}

// adoptHist installs or merges one transferred/replayed entry without
// disturbing state that already supersedes it. It is shared by WAL replay
// (replaying = true: also rebuild the speculative results and reply cache,
// with sends suppressed) and the tail catch-up install (replaying = false:
// never trust a conflicting batch over the local one).
func (r *Replica) adoptHist(ctx proc.Context, h *HistEntry, replaying bool) {
	if h.Inst.Space < 0 || int(h.Inst.Space) >= r.n {
		return
	}
	sp := r.log.space(h.Inst.Space)
	if h.Inst.Slot <= sp.truncated {
		return // the installed snapshot already covers it
	}
	e := r.log.get(h.Inst)
	if e == nil {
		e = entryFromHist(h)
		if h.Status != HistSpecOrdered {
			// Transferred commit decisions are final; executed entries are
			// adopted as committed so this replica executes them itself.
			e.status = StatusCommitted
			e.clientCommit = h.ClientCommit
		}
		r.log.put(e)
		for i := 0; i < e.nCmds(); i++ {
			cmd := e.cmdAt(i)
			if cmd.IsNoop() {
				continue
			}
			r.instByCmd[cmdKey{cmd.Client, cmd.Timestamp}] = e.inst
			r.deps.update(e.inst, cmd, e.seq)
			r.window.Seen(cmd.Client, cmd.Timestamp)
		}
		if replaying && e.so != nil {
			// Rebuild the speculative overlay and the per-request reply
			// cache exactly as the original acceptance did; r.send is
			// suppressed while recovering, so nothing leaves the replica.
			r.specExecuteAndReply(ctx, e, e.so)
		}
		if e.status == StatusCommitted {
			r.pendingExec[e.inst] = e
		}
		return
	}
	if !replaying && e.cmdDigest != histBatchDigest(h) {
		// A tail transfer disagreeing with the local log about an
		// instance's content is conflicting evidence (an equivocating
		// leader's, or a lying responder's); the owner-change protocol
		// arbitrates such slots, never a state transfer.
		return
	}
	if h.Status == HistSpecOrdered || e.status >= StatusExecuted {
		return
	}
	// Commit decision for a known entry: install or deterministically merge
	// (union of dependencies, maximum sequence number), mirroring
	// commitEntry.
	if e.status == StatusCommitted {
		e.deps.Union(h.Deps)
		if h.Seq > e.seq {
			e.seq = h.Seq
		}
	} else {
		e.deps = h.Deps.Clone()
		e.seq = h.Seq
		e.status = StatusCommitted
		if e.clientCommit == nil {
			e.clientCommit = h.ClientCommit
		}
	}
	for i := 0; i < e.nCmds(); i++ {
		r.deps.update(e.inst, e.cmdAt(i), e.seq)
	}
	r.pendingExec[e.inst] = e
}

// entryFromHist builds a log entry from a transferred HistEntry (digests
// recomputed from the carried commands).
func entryFromHist(h *HistEntry) *entry {
	e := &entry{
		inst:  h.Inst,
		owner: h.Owner,
		cmd:   h.Cmd,
		deps:  h.Deps.Clone(),
		seq:   h.Seq,
		so:    h.SO,
	}
	switch h.Status {
	case HistExecuted:
		e.status = StatusExecuted
	case HistCommitted:
		e.status = StatusCommitted
		e.clientCommit = h.ClientCommit
	default:
		e.status = StatusSpecOrdered
	}
	if len(h.Batch) > 0 {
		e.extra = h.Batch
		digests := make([]types.Digest, h.BatchSize())
		for j := range digests {
			digests[j] = h.CmdAt(j).Digest()
		}
		e.cmdDigests = digests
		e.cmdDigest = BatchDigest(digests)
	} else {
		e.cmdDigest = h.Cmd.Digest()
	}
	return e
}

// histBatchDigest recomputes the batch digest binding a HistEntry's
// commands.
func histBatchDigest(h *HistEntry) types.Digest {
	if len(h.Batch) == 0 {
		return h.Cmd.Digest()
	}
	digests := make([]types.Digest, h.BatchSize())
	for j := range digests {
		digests[j] = h.CmdAt(j).Digest()
	}
	return BatchDigest(digests)
}
