package core

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// ezBFT's write-ahead log: its record kinds, its replay, and its snapshot.
// engine.Shell states the contract — when records are synced, what the
// snapshot cut does, how recovery runs and what a store error does.
//
// Records, each appended before the replica acts on the event it records:
//
//   - walOrderKind: an accepted SPECORDER — own proposal or a participant's
//     acceptance — as a HistEntry with the leader-signed proof, before the
//     SPECORDER is broadcast or the SPECREPLY sent;
//   - walCommitKind: an installed commit decision (final dependencies and
//     sequence number) as a HistEntry, when the entry reaches
//     StatusCommitted and on every later deterministic merge;
//   - walExecKind: one entry's final execution with its per-command
//     (client, timestamp) pairs — the durable increments of the per-client
//     executed-timestamp table whose full form rides in the snapshot;
//   - walCkptVoteKind: a validated CHECKPOINT vote (own or a peer's), so the
//     tracker's quorum state and the stable low-water marks survive.
//
// The snapshot, cut when a checkpoint becomes 2f+1-stable, is the replica's
// entire transferable state — the CatchupResp a lagging peer would be
// served: per-space lifecycle state, the checkpoint proof, the application
// snapshot, the executed-timestamp table, and the retained log suffix.
//
// Recovery installs the snapshot through the installer the catch-up path
// uses (without re-verifying proofs: the replica wrote those bytes itself)
// and replays the records through the live handlers' own idempotent
// guards. Final execution is re-derived, not replayed: committed entries
// above the snapshot re-execute through the ordinary execution path, which
// rebuilds the exactly-once memo and the executed-timestamp table in
// lockstep with the application state. Afterwards the replica fetches the
// commits still in flight and requests a tail CATCHUP for any space still
// behind its stable mark.
const (
	walOrderKind    uint8 = 1 // accepted SPECORDER (HistEntry + proof)
	walCommitKind   uint8 = 2 // installed commit decision (HistEntry)
	walExecKind     uint8 = 3 // final execution (inst + client timestamps)
	walCkptVoteKind uint8 = 4 // validated CHECKPOINT vote (wire message)
)

// walHist logs an entry's acceptance (walOrderKind) or commit decision
// (walCommitKind) as a HistEntry record.
func (r *Replica) walHist(kind uint8, e *entry) {
	status := HistSpecOrdered
	if kind == walCommitKind {
		status = HistCommitted
	}
	r.Append(kind, func(w *codec.Writer) {
		h := e.hist(status)
		h.marshalTo(w)
	})
}

// walExec logs one entry's final execution: the instance and each ordered
// command's (client, timestamp) pair.
func (r *Replica) walExec(e *entry) {
	r.Append(walExecKind, func(w *codec.Writer) {
		w.Instance(e.inst)
		w.Uvarint(uint64(e.nCmds()))
		for i := 0; i < e.nCmds(); i++ {
			cmd := e.cmdAt(i)
			w.Int32(int32(cmd.Client))
			w.Uvarint(cmd.Timestamp)
		}
	})
}

// walVote logs one validated CHECKPOINT vote as its tagged wire encoding.
func (r *Replica) walVote(m *CheckpointMsg) {
	r.Append(walCkptVoteKind, func(w *codec.Writer) {
		w.Uint8(m.Tag())
		m.MarshalTo(w)
	})
}

// persistSnapshot cuts the store snapshot at the replica's current
// transferable state. The cut runs synchronously in the handler, so on
// large application state the loop stalls for one serialization (and
// fsync, when enabled) per checkpoint interval; see ROADMAP.md.
func (r *Replica) persistSnapshot() {
	snap, ok := types.Application(r.cfg.App).(types.Snapshotter)
	if !ok {
		return
	}
	r.SaveSnapshot(func() []byte {
		resp := r.buildTransferState(snap, nil)
		return codec.AppendMarshal(make([]byte, 0, resp.sizeHint()), resp)
	})
}

// Init implements proc.Process: a replica whose store holds state from a
// previous incarnation rebuilds itself from it before any delivery.
func (r *Replica) Init(ctx proc.Context) {
	if !r.Recover(func(data []byte) { r.restoreSnapshot(ctx, data) }, func(rec store.Record) { r.replayRecord(ctx, rec) }, func() {
		// Never reuse an own-space slot the replayed log says is taken.
		if own := r.log.space(r.cfg.Self); own.maxSlot+1 > r.nextSlot {
			r.nextSlot = own.maxSlot + 1
		}
		r.tryExecute(ctx)
	}) {
		return
	}
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

// restoreSnapshot installs a persisted snapshot and re-seeds the
// checkpoint tracker's stable marks from its proof.
func (r *Replica) restoreSnapshot(ctx proc.Context, data []byte) {
	msg, err := codec.Unmarshal(data)
	if err != nil {
		return
	}
	resp, ok := msg.(*CatchupResp)
	snap, isSnap := types.Application(r.cfg.App).(types.Snapshotter)
	if !ok || len(resp.Spaces) != r.n || !isSnap {
		return
	}
	r.installTransfer(ctx, resp, snap)
	for _, v := range resp.Proof {
		r.ckpt.Record(engine.CheckpointSpace(v.Space), v.Slot, v.Replica, v.Digest, v)
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
			// cache exactly as the original acceptance did; the gate is closed
			// while recovering, so nothing leaves the replica.
			r.specExecuteAndReply(ctx, e, e.so)
		}
		if e.status == StatusCommitted {
			r.pendingExec[e.inst] = e
		}
		return
	}
	if !replaying {
		if _, d := h.digests(); e.cmdDigest != d {
			// A tail transfer disagreeing with the local log about an
			// instance's content is conflicting evidence (an equivocating
			// leader's, or a lying responder's); the owner-change protocol
			// arbitrates such slots, never a state transfer.
			return
		}
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

// hist reports the entry as a HistEntry of the given status — the record a
// WAL, a catch-up suffix and an owner-change history all carry; a committed
// report carries the client's COMMIT, if any. Deps is shared, which the
// InstanceSet contract allows.
func (e *entry) hist(status HistStatus) HistEntry {
	h := HistEntry{Inst: e.inst, Status: status, Cmd: e.cmd, Batch: e.extra, Deps: e.deps, Seq: e.seq, Owner: e.owner, SO: e.so}
	if status == HistCommitted {
		h.ClientCommit = e.clientCommit
	}
	return h
}

// entryFromHist builds a log entry from a transferred or replayed
// HistEntry.
func entryFromHist(h *HistEntry) *entry {
	e := &entry{inst: h.Inst, owner: h.Owner, deps: h.Deps.Clone(), seq: h.Seq, so: h.SO}
	e.setCmds(h)
	switch h.Status {
	case HistExecuted:
		e.status = StatusExecuted
	case HistCommitted:
		e.status = StatusCommitted
		e.clientCommit = h.ClientCommit
	default:
		e.status = StatusSpecOrdered
	}
	return e
}

// setCmds installs a HistEntry's commands in the entry, with their digests
// recomputed.
func (e *entry) setCmds(h *HistEntry) {
	e.cmd, e.extra = h.Cmd, h.Batch
	e.cmdDigests, e.cmdDigest = h.digests()
}

// digests recomputes the digest of each of a batched HistEntry's commands
// (nil when unbatched) and the batch digest binding them (the command's
// own digest when unbatched).
func (h *HistEntry) digests() ([]types.Digest, types.Digest) {
	if len(h.Batch) == 0 {
		return nil, h.Cmd.Digest()
	}
	digests := make([]types.Digest, h.BatchSize())
	for j := range digests {
		digests[j] = h.CmdAt(j).Digest()
	}
	return digests, BatchDigest(digests)
}
