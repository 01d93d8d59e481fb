package engine

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// The write-ahead log the Sequencer keeps for PBFT, Zyzzyva and FaB alike:
// its record kinds, its snapshot and its recovery. Shell states the
// contract — when records are synced, what the snapshot cut does, how
// recovery runs and what a store error does.
//
// Records, each appended before the step it records has any effect:
//
//   - WALPlace — a slot accepted in a view (Place; the primary's own
//     proposal as flush assigns it, before its frame is signed): sequence
//     number, view, and the batch with its client signatures. A restarted
//     replica must remember what it accepted in a view, or it could vote
//     for an equivocating primary's other batch.
//   - WALFinal — a slot becoming final (Finalize: PBFT's committed-local,
//     FaB's learned; Zyzzyva executes on acceptance and writes none):
//     sequence number and view. Execution is not logged: executing the
//     recovered slots in order reproduces results and the reply cache.
//   - WALVote — every CHECKPOINT vote the replica signs or accepts, as its
//     tagged frame, so the stable mark is re-established.
//   - WALView — a view entered, so a restarted backup does not return to an
//     old primary.
//   - WALHold — a certificate as it forms (Certify) with the frame it
//     certifies, so a restarted replica still holds it (Hold).
//
// The values and bodies must not change: stores written by earlier versions
// replay through them (internal/pbft's TestLegacyStoreRecovers).
//
// The snapshot (Persist), cut at each newly stable checkpoint and after
// each installed transfer: the view, the stable mark with its agreed digest
// and 2f+1 vote proof, the application snapshot at exactly that mark, every
// accepted slot above the mark with its batch and a final flag (2; the
// flag 1 of older PBFT snapshots is ignored), the certificates held above
// the mark, and last the protocol's aux value at the mark (Zyzzyva's
// history hash; zero where a snapshot ends before it).
//
// Recovery (Init) installs the snapshot, then replays each record through
// the step that wrote it, and after each one executes what the protocol's
// rule lets execute (SeqHost.Ready) — so a view record drops exactly the
// slots the view entry dropped: those not executed by then, which keeps a
// slot Zyzzyva executed speculatively before the view change.
const (
	WALPlace uint8 = iota + 1
	WALFinal
	WALVote
	WALView
	WALHold
)

// ErrSnapshot is the store error of a replica whose snapshot does not
// decode: it recovers nothing from the store (WALFailed) and rejoins by
// state transfer.
var ErrSnapshot = errors.New("engine: the store's snapshot does not decode")

// Decode bounds: the CHECKPOINT votes of a snapshot's proof, and its slots,
// held certificates and a slot's commands.
const (
	maxSnapVotes = 256
	maxSnapSlots = 1 << 20
)

// logPlace logs a slot accepted in view at seq, with its n requests (req
// returns the i'th).
func (s *Sequencer[R, P, Y, S]) logPlace(seq, view uint64, n int, req func(i int) P) {
	s.Append(WALPlace, func(w *codec.Writer) {
		w.Uvarint(seq)
		w.Uvarint(view)
		w.Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			m := req(i)
			w.Command(*m.Command())
			w.Blob(m.Signature())
		}
	})
}

// ClientSig returns the client signature of a batch's i'th command: the
// one its frame carries, else the one it was transferred or logged with.
func (s *Sequencer[R, P, Y, S]) ClientSig(b *Batch, i int) []byte {
	if f, ok := b.Frame.(Frame[P]); ok {
		return f.ReqAt(i).Signature()
	}
	if i < len(b.Sigs) {
		return b.Sigs[i]
	}
	return nil
}

// Persist cuts the store snapshot at the stable checkpoint. A checkpoint
// itself costs the loop O(1) for an application that retains its state
// (StateKeeper). Here, synchronously in the handler, the snapshot streams
// into the store through a small buffer, the state straight from its pin
// when the application can stream it (types.StateWriter): a replica with a
// store stalls for time proportional to the state once per stable
// checkpoint, but allocates nothing in proportion to it.
func (s *Sequencer[R, P, Y, S]) Persist() {
	st := s.life.Stable(0)
	if st == nil || !s.logging() {
		return
	}
	state, aux, ok := s.states.Writer(st.Mark)
	if !ok {
		return // non-Snapshotter application: WAL-only durability
	}
	s.SaveSnapshot(func(out io.Writer) error { return s.snapshot(out, st, state, aux) })
}

// snapshot streams the snapshot at st to out, with the state there and its
// aux value, spilling its small codec buffer as it goes.
func (s *Sequencer[R, P, Y, S]) snapshot(out io.Writer, st *StableCheckpoint[*Checkpoint], state types.StateWriter, aux types.Digest) error {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	w.Uvarint(s.view)
	w.Uvarint(st.Mark)
	w.Bytes32(st.Digest)
	if err := state.WriteState(out, func(n int) error {
		w.Uvarint(uint64(n))
		return w.Flush(out)
	}); err != nil {
		return err
	}
	w.Uvarint(uint64(len(st.Votes)))
	for _, v := range st.Votes {
		v.MarshalTo(w)
	}
	// Every accepted slot above the mark: the snapshot replaces the records
	// below the cut, so it must carry everything they proved.
	seqs := s.snapSeqs[:0]
	for seq, slot := range s.Log {
		if seq > st.Mark && slot.Ordered().Accepted {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	s.snapSeqs = seqs
	w.Uvarint(uint64(len(seqs)))
	for _, seq := range seqs {
		b := s.Log[seq].Ordered()
		w.Uvarint(b.Seq)
		w.Uvarint(b.View)
		var flags uint8
		if b.Final || b.Executed {
			flags = 2
		}
		w.Uint8(flags)
		w.Uvarint(uint64(len(b.Cmds)))
		for i := range b.Cmds {
			w.Command(b.Cmds[i])
			w.Blob(s.ClientSig(b, i))
		}
		if err := w.Spill(out); err != nil {
			return err
		}
	}
	held := s.HeldCerts()
	w.Uvarint(uint64(len(held)))
	for i := range held {
		held[i].MarshalTo(w)
		if err := w.Spill(out); err != nil {
			return err
		}
	}
	w.Bytes32(aux)
	return w.Flush(out)
}

// Init implements proc.Process: a replica handed a non-empty store rebuilds
// itself from it (see the top of this file), and fetches by state transfer
// whatever lies between its execution head and the stable mark it
// recovered (peers do not retransmit old ordering frames).
func (s *Sequencer[R, P, Y, S]) Init(ctx proc.Context) {
	if !s.Recover(func(data []byte) error { return s.restore(ctx, data) }, func(rec store.Record) { s.replay(ctx, rec) }, func() {
		s.NextSeq = max(s.NextSeq, s.MaxExec+1)
		for seq := range s.Log {
			s.NextSeq = max(s.NextSeq, seq+1)
		}
	}) {
		return
	}
	if st := s.life.Stable(0); st != nil && st.Mark > s.MaxExec {
		s.life.Request(ctx, st)
	}
}

// restore installs a persisted snapshot — the view, the stable mark with
// its proof, the application state there, and the slots and certificates
// above it — and executes what it makes ready. A snapshot that does not
// decode installs nothing.
func (s *Sequencer[R, P, Y, S]) restore(ctx proc.Context, data []byte) error {
	rd := codec.NewReader(data)
	view := rd.Uvarint()
	mark := rd.Uvarint()
	rd.Bytes32() // the agreed digest, which the votes carry too
	appSnap := rd.Blob()
	votes, err := decodeList(rd, maxSnapVotes, func(r *codec.Reader) (*Checkpoint, error) {
		return DecodeCheckpoint(r, s.tags.Checkpoint)
	})
	var slots []S
	var held []ViewEntry
	if err == nil {
		slots, err = decodeList(rd, maxSnapSlots, func(r *codec.Reader) (S, error) { return s.decodeSlot(r, true) })
	}
	if err == nil {
		held, err = decodeList(rd, maxSnapSlots, func(r *codec.Reader) (ViewEntry, error) { return DecodeViewEntry(r, &s.vtags) })
	}
	var aux types.Digest
	if rd.Remaining() > 0 {
		aux = rd.Bytes32()
	}
	if err == nil {
		err = rd.Finish()
	}
	// Decoded clean — install our own bytes without re-verifying them.
	if snap, ok := s.cfg.App.(types.Snapshotter); ok && err == nil && len(appSnap) > 0 {
		err = snap.Restore(appSnap)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	s.EnterView(view)
	// The state at the mark adopts as a transfer's would (DropLog).
	s.life.Adopt(votes...)
	s.states.Adopt(mark, appSnap, aux)
	s.lhost.DropLog(mark, aux)
	for _, slot := range slots {
		s.install(slot)
	}
	for _, e := range held {
		s.Hold(e)
	}
	s.host.Ready(ctx)
	return nil
}

// replay applies one record through the step that wrote it, and executes
// what that makes ready. A record that does not decode is skipped.
func (s *Sequencer[R, P, Y, S]) replay(ctx proc.Context, rec store.Record) {
	rd := codec.NewReader(rec.Data)
	switch rec.Kind {
	case WALPlace:
		if slot, err := s.decodeSlot(rd, false); err == nil {
			s.install(slot)
		}
	case WALFinal:
		seq, view := rd.Uvarint(), rd.Uvarint()
		if slot, ok := s.Log[seq]; ok && rd.Err() == nil && slot.Ordered().View == view {
			slot.Ordered().Final = true
		}
	case WALVote:
		if rd.Uint8() == s.tags.Checkpoint {
			if ck, err := DecodeCheckpoint(rd, s.tags.Checkpoint); err == nil && rd.Finish() == nil {
				s.life.Record(ctx, ck)
			}
		}
	case WALView:
		if v := rd.Uvarint(); rd.Err() == nil && v > s.view {
			s.enterView(ctx, v)
		}
	case WALHold:
		if e, err := DecodeViewEntry(rd, &s.vtags); err == nil {
			s.Hold(e)
		}
	}
	s.host.Ready(ctx)
}

// decodeSlot reads a logged slot: its sequence number, its view, in a
// snapshot its flags, and its batch with the client signatures.
func (s *Sequencer[R, P, Y, S]) decodeSlot(r *codec.Reader, flagged bool) (S, error) {
	slot := s.vhost.NewSlot(r.Uvarint())
	b := slot.Ordered()
	b.View = r.Uvarint()
	if flagged {
		b.Final = r.Uint8()&2 != 0
	}
	n := r.Uvarint()
	if n > maxSnapSlots {
		return slot, codec.ErrOverflow
	}
	b.Cmds, b.Sigs = make([]types.Command, n), make([][]byte, n)
	for i := range b.Cmds {
		b.Cmds[i], b.Sigs[i] = r.Command(), r.Blob()
	}
	return slot, r.Err()
}

// install puts a slot rebuilt from the store in the log, with its
// per-request bookkeeping, unless the restored application state already
// covers it.
func (s *Sequencer[R, P, Y, S]) install(slot S) {
	b := slot.Ordered()
	if b.Seq <= s.MaxExec {
		return
	}
	b.Accepted = true
	b.Digests = make([]types.Digest, len(b.Cmds))
	for i := range b.Cmds {
		b.Digests[i] = b.Cmds[i].Digest()
		s.Record(&b.Cmds[i], b.Seq)
	}
	b.Digest = BatchDigest(b.Digests)
	s.Log[b.Seq] = slot
}
