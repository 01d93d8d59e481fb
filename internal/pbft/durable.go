package pbft

import (
	"sort"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// PBFT's write-ahead log: its record kinds, its replay, and its snapshot.
// engine.Shell states the contract — when records are synced, what the
// snapshot cut does, how recovery runs and what a store error does.
//
// Records, each appended before the step it records has any effect:
//
//   - walPreKind — an accepted PRE-PREPARE (sequence number, view, and the
//     full request batch), before the backup broadcasts its PREPARE. A
//     restarted replica must remember what it prepared in a view or it
//     could countersign an equivocating primary.
//   - walCommitKind — a slot reaching committed-local (sequence number and
//     view), before execution. Execution is not logged: re-executing the
//     committed slots in order reproduces results and the reply cache.
//   - walVoteKind — every CHECKPOINT vote this replica signs or accepts,
//     so the stable low-water mark is re-established on restart.
//   - walViewKind — the view entered through a NEW-VIEW, so a restarted
//     backup does not regress to an old primary.
//   - walCertKind — a slot's prepared certificate with its PRE-PREPARE,
//     before the COMMIT leaves, so a restarted replica still reports it in
//     its VIEW-CHANGEs (engine.Sequencer.Hold).
//
// The snapshot, cut at each newly stable checkpoint: the adopted view, the
// stable mark with its agreed digest and 2f+1 vote proof, the application
// snapshot at exactly that mark, every retained slot above the mark with
// its agreement flags, and the certificates held above the mark.
const (
	walPreKind uint8 = iota + 1
	walCommitKind
	walVoteKind
	walViewKind
	walCertKind
)

// walPre logs an accepted proposal: seq, view, and the ordered batch.
func (r *Replica) walPre(s *slotState) {
	r.Append(walPreKind, func(w *codec.Writer) {
		w.Uvarint(s.Seq)
		w.Uvarint(s.View)
		s.marshalReqs(w)
	})
}

// walCommit logs a slot reaching committed-local.
func (r *Replica) walCommit(s *slotState) {
	r.Append(walCommitKind, func(w *codec.Writer) {
		w.Uvarint(s.Seq)
		w.Uvarint(s.View)
	})
}

// walVote logs one checkpoint vote (self-signed wire message, verbatim).
func (r *Replica) walVote(m *Checkpoint) {
	r.Append(walVoteKind, func(w *codec.Writer) {
		w.Uint8(m.Tag())
		m.MarshalTo(w)
	})
}

// walView logs the adopted view.
func (r *Replica) walView(view uint64) {
	r.Append(walViewKind, func(w *codec.Writer) { w.Uvarint(view) })
}

// walCert logs a prepared slot's certificate and the frame it certifies
// (none for a slot recovered without its frame).
func (r *Replica) walCert(s *slotState) {
	if s.Frame != nil || len(s.Cmds) == 0 {
		r.Append(walCertKind, func(w *codec.Writer) {
			e := engine.ViewEntry{Seq: s.Seq, Frame: s.Frame, Cert: host{r}.Certificate(s)}
			e.MarshalTo(w)
		})
	}
}

// persistSnapshot cuts the snapshot at the current stable checkpoint. A
// checkpoint itself costs the loop O(1) for an application that retains
// its state (engine.StateKeeper); the state is serialized here,
// synchronously in the handler, so only a replica with a store pays a
// stall proportional to the application state size, once per stable
// checkpoint.
func (r *Replica) persistSnapshot() {
	r.SaveSnapshot(func() []byte {
		st := r.Life().Stable()
		if st == nil {
			return nil
		}
		appSnap, ok := r.Life().StateAt(st.Mark)
		if !ok {
			return nil // non-Snapshotter application: WAL-only durability
		}
		w := codec.GetWriter()
		defer codec.PutWriter(w)
		w.Uvarint(r.View())
		w.Uvarint(st.Mark)
		w.Bytes32(st.Digest)
		w.Blob(appSnap)
		w.Uvarint(uint64(len(st.Votes)))
		for _, v := range st.Votes {
			v.MarshalTo(w)
		}
		// Every retained slot above the mark, with its agreement flags: the
		// snapshot replaces the WAL records below the cut, so it must carry
		// everything they proved.
		seqs := make([]uint64, 0, len(r.Log))
		for seq, s := range r.Log {
			if seq > st.Mark && s.Accepted {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		w.Uvarint(uint64(len(seqs)))
		for _, seq := range seqs {
			s := r.Log[seq]
			w.Uvarint(s.Seq)
			w.Uvarint(s.View)
			var flags uint8
			if s.prepared {
				flags |= 1
			}
			if s.committed || s.Executed {
				flags |= 2
			}
			w.Uint8(flags)
			s.marshalReqs(w)
		}
		held := r.HeldCerts()
		w.Uvarint(uint64(len(held)))
		for i := range held {
			held[i].MarshalTo(w)
		}
		return append([]byte(nil), w.Bytes()...)
	})
}

// Init implements proc.Process: a replica handed a non-empty store
// rebuilds itself from it — the snapshot, the records above it, then the
// committed contiguous prefix re-executed to rebuild the application state
// and the reply cache — and fetches by state transfer whatever lies
// between its execution head and the cluster's stable mark (peers do not
// retransmit old PRE-PREPAREs).
func (r *Replica) Init(ctx proc.Context) {
	if !r.Recover(r.restoreSnapshot, func(rec store.Record) { r.replayRecord(ctx, rec) }, func() {
		// Replies are re-signed so cached retransmit answers stay servable.
		r.ExecuteReady(ctx, committed)
		if r.NextSeq <= r.MaxExec {
			r.NextSeq = r.MaxExec + 1
		}
		for seq := range r.Log {
			if seq >= r.NextSeq {
				r.NextSeq = seq + 1
			}
		}
	}) {
		return
	}
	if st := r.Life().Stable(); st != nil && st.Mark > r.MaxExec {
		r.Life().Pull(ctx)
	}
}

// restoreSnapshot installs a persisted snapshot: view, stable mark and
// proof, application state, and the retained slots above the mark.
func (r *Replica) restoreSnapshot(data []byte) {
	rd := codec.NewReader(data)
	view := rd.Uvarint()
	mark := rd.Uvarint()
	rd.Bytes32() // the agreed digest, which the votes carry too
	appSnap := rd.Blob()
	nVotes := rd.Uvarint()
	if rd.Err() != nil || nVotes > 256 {
		return
	}
	votes := make([]*Checkpoint, 0, nVotes)
	for i := uint64(0); i < nVotes; i++ {
		ck, err := engine.DecodeCheckpoint(rd, logTags.Checkpoint)
		if err != nil {
			return
		}
		votes = append(votes, ck)
	}
	type snapSlot struct {
		seq, view uint64
		flags     uint8
		reqs      []Request
	}
	nSlots := rd.Uvarint()
	if rd.Err() != nil || nSlots > 1<<20 {
		return
	}
	slots := make([]snapSlot, 0, nSlots)
	for i := uint64(0); i < nSlots; i++ {
		ss := snapSlot{seq: rd.Uvarint(), view: rd.Uvarint(), flags: rd.Uint8()}
		var err error
		if ss.reqs, err = decodeReqs(rd); err != nil {
			return
		}
		slots = append(slots, ss)
	}
	nHeld := rd.Uvarint()
	if rd.Err() != nil || nHeld > 1<<20 {
		return
	}
	held := make([]engine.ViewEntry, nHeld)
	for i := range held {
		var err error
		if held[i], err = engine.DecodeViewEntry(rd, &viewTags); err != nil {
			return
		}
	}
	// Decoded clean — install our own bytes without re-verifying them.
	if snap, ok := r.cfg.App.(types.Snapshotter); ok && len(appSnap) > 0 {
		if err := snap.Restore(appSnap); err != nil {
			return
		}
	}
	r.EnterView(view)
	r.MaxExec = mark
	r.Life().Recovered(mark, appSnap, votes)
	for _, ss := range slots {
		r.installRecoveredSlot(ss.seq, ss.view, ss.reqs, ss.flags&1 != 0, ss.flags&2 != 0)
	}
	for _, e := range held {
		r.Hold(e)
	}
}

// installRecoveredSlot rebuilds one slot (and its per-request bookkeeping)
// from durable state. Committed slots above the execution head re-execute
// through ExecuteReady at the end of recovery.
func (r *Replica) installRecoveredSlot(seq, view uint64, reqs []Request, prepared, committed bool) {
	if seq <= r.MaxExec {
		return // covered by the restored application snapshot
	}
	s := host{r}.NewSlot(seq)
	s.View = view
	s.Accepted = true
	s.Cmds = make([]types.Command, len(reqs))
	s.sigs = make([][]byte, len(reqs))
	s.Digests = make([]types.Digest, len(reqs))
	for i := range reqs {
		s.Cmds[i], s.sigs[i] = reqs[i].Cmd, reqs[i].Sig
		s.Digests[i] = reqs[i].Cmd.Digest()
	}
	s.Digest = engine.BatchDigest(s.Digests)
	s.prepared = prepared || committed
	s.committed = committed
	r.Log[seq] = s
	for i := range s.Cmds {
		r.Record(&s.Cmds[i], seq)
	}
}

// replayRecord applies one WAL record. Records replay in LSN order, so a
// later record for the same slot supersedes an earlier one (the view-change
// re-proposal path); duplicate replay is idempotent.
func (r *Replica) replayRecord(ctx proc.Context, rec store.Record) {
	rd := codec.NewReader(rec.Data)
	switch rec.Kind {
	case walPreKind:
		seq := rd.Uvarint()
		view := rd.Uvarint()
		reqs, err := decodeReqs(rd)
		if err != nil {
			return
		}
		if s, ok := r.Log[seq]; ok && s.View > view {
			return // a later view superseded this proposal
		}
		r.installRecoveredSlot(seq, view, reqs, false, false)
	case walCommitKind:
		seq := rd.Uvarint()
		view := rd.Uvarint()
		if rd.Err() != nil {
			return
		}
		s, ok := r.Log[seq]
		if !ok || s.View != view {
			return // slot truncated below the cut, or re-proposed since
		}
		s.prepared = true
		s.committed = true
	case walVoteKind:
		msg, err := codec.Unmarshal(rec.Data)
		if err != nil {
			return
		}
		if ck, ok := msg.(*Checkpoint); ok {
			// Re-tally through the normal path: a re-established stable mark
			// truncates below it; catch-up requests are suppressed until
			// recovery ends.
			r.Life().Record(ctx, ck)
		}
	case walCertKind:
		if e, err := engine.DecodeViewEntry(rd, &viewTags); err == nil {
			r.Hold(e)
		}
	case walViewKind:
		if v := rd.Uvarint(); rd.Err() == nil && v > r.View() {
			r.EnterView(v)
			// Mirror the view entry: uncommitted slots from older views are
			// the new view's to re-order. Committed slots are final and
			// stay.
			for seq, s := range r.Log {
				if s.View < v && !s.committed {
					delete(r.Log, seq)
				}
			}
		}
	}
}
