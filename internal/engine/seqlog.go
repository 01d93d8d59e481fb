package engine

import (
	"bytes"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// The Sequencer's half of its Lifecycle (seqLife): one space whose mark is
// the executed sequence number, the application states kept for transfer
// (StateKeeper), and the trust rule. A transfer installs once f+1 distinct
// responders send the same anchor (sequence number, quorum-signed digest,
// aux value, snapshot bytes) under a valid 2f+1 checkpoint proof; the
// snapshot must digest to the quorum-signed digest, and only the
// executed-suffix prefix every one of them vouches for replays.

// SeqLogHost is what a sequenced protocol adds to its Sequencer's half of
// the Lifecycle.
type SeqLogHost interface {
	// ExecutedSuffix returns the contiguous executed slots above mark that
	// the replica still holds.
	ExecutedSuffix(mark uint64) []CatchupSlot
	// DropLog forgets every slot at or below mark and makes mark the
	// executed watermark: the application state there was just installed
	// (by a transfer or from the store), with aux the value the protocol
	// keeps beside it.
	DropLog(mark uint64, aux types.Digest)
	// ReplaySlot executes one transferred slot at MaxExec+1 and advances
	// the watermark to it.
	ReplaySlot(ctx proc.Context, s *CatchupSlot)
	// AdoptView moves the replica forward to view, if it is behind it.
	AdoptView(ctx proc.Context, view uint64)
	// Installed runs after a transfer installed: whatever it made
	// contiguous executes.
	Installed(ctx proc.Context)
}

// seqLife is the Sequencer as its Lifecycle's LogHost.
type seqLife[R any, P ClientRequest[R], Y codec.Message, S Slot] struct{ *Sequencer[R, P, Y, S] }

// MaybeEmit votes for the executed watermark when it sits on a checkpoint
// boundary not voted for yet. The application state there is kept, with
// aux beside it, as the transfer payload should the checkpoint become
// stable.
func (s *Sequencer[R, P, Y, S]) MaybeEmit(ctx proc.Context, aux types.Digest) {
	seq := s.MaxExec
	if !s.life.Boundary(seq) || seq <= s.emitted {
		return
	}
	s.emitted = seq
	ck := &Checkpoint{Seq: seq, Digest: s.cfg.App.Digest(), Replica: s.cfg.Self, tag: s.tags.Checkpoint}
	s.states.Keep(seq, aux)
	s.cfg.Costs.ChargeSign(ctx)
	ck.Sig = SignBody(s.cfg.Auth, ck)
	s.life.Emit(ctx, ck)
}

// Stabilized implements LogHost: truncate, cut the snapshot, and fetch the
// state if the watermark trails the mark.
func (s seqLife[R, P, Y, S]) Stabilized(_ proc.Context, st *StableCheckpoint[*Checkpoint]) bool {
	s.Truncate(st.Mark)
	s.Persist()
	return s.MaxExec < st.Mark
}

// Behind implements LogHost: the watermark trails the stable mark, or a
// slot an installed agreement's responders all vouched for.
func (s seqLife[R, P, Y, S]) Behind(st *StableCheckpoint[*Checkpoint]) bool {
	return s.MaxExec < st.Mark || s.MaxExec < s.vouched
}

// Solicit implements LogHost. A round whose watermark already reached the
// mark asks for the tail only.
func (s seqLife[R, P, Y, S]) Solicit(ctx proc.Context, st *StableCheckpoint[*Checkpoint]) *CatchupReq {
	s.tail = s.MaxExec >= st.Mark
	req := &CatchupReq{Replica: s.cfg.Self, tag: s.tags.CatchupReq}
	s.cfg.Costs.ChargeSign(ctx)
	req.Sig = SignBody(s.cfg.Auth, req)
	return req
}

// Serve implements LogHost: the latest stable checkpoint's proof, the
// state kept at exactly its sequence number, and every retained executed
// slot above it.
func (s seqLife[R, P, Y, S]) Serve(ctx proc.Context, _ *CatchupReq) (*CatchupResp, bool) {
	st := s.life.Stable(0)
	if st == nil {
		return nil, false
	}
	snap, aux, ok := s.states.Snapshot(st.Mark)
	if !ok {
		return nil, false // no state kept for the stable point (non-Snapshotter app)
	}
	resp := &CatchupResp{
		Replica:  s.cfg.Self,
		View:     s.view,
		Seq:      st.Mark,
		Digest:   st.Digest,
		Aux:      aux,
		Snapshot: snap,
		Suffix:   s.lhost.ExecutedSuffix(st.Mark),
		Proof:    st.Votes,
		tag:      s.tags.CatchupResp,
	}
	s.cfg.Costs.ChargeSign(ctx)
	resp.Sig = SignBody(s.cfg.Auth, resp)
	return resp, true
}

// Admit implements LogHost. A response anchored above the watermark
// installs wholesale; one anchored at or below it counts only in a tail
// round, and settles the round if its suffix ends below the watermark.
// Either way it needs a valid proof of its anchor and goes to agreement.
func (s seqLife[R, P, Y, S]) Admit(ctx proc.Context, m *CatchupResp) Admission {
	wholesale := m.Seq > s.MaxExec
	if !wholesale {
		if !s.tail {
			return Ignore
		}
		if m.Seq+uint64(len(m.Suffix)) <= s.MaxExec {
			return Settled
		}
	}
	if !s.life.Valid(ctx, m.Replica, m, m.Sig) {
		return Ignore
	}
	if _, ok := s.cfg.App.(types.Snapshotter); wholesale && !ok {
		return Ignore
	}
	s.cfg.Costs.ChargeVerify(ctx, len(m.Proof))
	if !s.life.ProofValid(0, m.Seq, m.Digest, m.Proof) {
		return Reject
	}
	return Agree
}

// Agree implements LogHost: the same checkpoint, aux value and snapshot
// bytes.
func (s seqLife[R, P, Y, S]) Agree(a, b *CatchupResp) bool {
	return a.Seq == b.Seq && a.Digest == b.Digest && a.Aux == b.Aux && bytes.Equal(a.Snapshot, b.Snapshot)
}

// Install implements LogHost. A wholesale install restores the snapshot,
// which must digest to the checkpoint's 2f+1-signed digest or is rolled
// back; then the suffix prefix every member of the group vouches for
// replays, and a replica still behind what they vouched for asks the next
// voters for the tail.
func (s seqLife[R, P, Y, S]) Install(ctx proc.Context, m *CatchupResp, group []*CatchupResp) bool {
	wholesale := m.Seq > s.MaxExec
	if wholesale {
		// Keep the pre-transfer state: should the agreed bytes still not
		// digest to the quorum-signed digest, nothing of them may stay.
		snap := s.cfg.App.(types.Snapshotter)
		prev := snap.Snapshot()
		if err := snap.Restore(m.Snapshot); err != nil {
			return false
		}
		if s.cfg.App.Digest() != m.Digest {
			_ = snap.Restore(prev)
			return false
		}
		s.lhost.DropLog(m.Seq, m.Aux)
		s.emitted = max(s.emitted, m.Seq)
	}
	// The lowest view and the shortest suffix in the group are what every
	// member, so at least one correct replica, vouches for.
	view, end := m.View, m.Seq+uint64(len(m.Suffix))
	for _, o := range group {
		view = min(view, o.View)
		end = min(end, o.Seq+uint64(len(o.Suffix)))
	}
	s.vouched = max(s.vouched, end)
	s.lhost.AdoptView(ctx, view)
	s.replay(ctx, m, group)
	if cs := s.life.Stable(0); cs == nil || cs.Mark < m.Seq {
		// Adopt the transferred checkpoint as the stable point, so stats and
		// later truncation reflect it before fresh votes arrive.
		s.life.Adopt(m.Proof...)
	}
	if wholesale {
		s.states.Adopt(m.Seq, m.Snapshot, m.Aux)
	}
	s.lhost.Installed(ctx)
	s.Persist()
	if st := s.life.Stable(0); st != nil && s.Behind(st) {
		// Slots the group vouched for did not replay (its members disagreed
		// on them): ask the next voters for the tail.
		s.life.Request(ctx, st)
	}
	return true
}

// replay executes, from the watermark up, the suffix prefix every member
// of the agreeing group vouches for: a liar inside the group (agreeing on
// the anchor) cannot smuggle in a forged slot.
func (s seqLife[R, P, Y, S]) replay(ctx proc.Context, m *CatchupResp, group []*CatchupResp) {
	agreed := len(m.Suffix)
	for _, o := range group {
		agreed = min(agreed, len(o.Suffix))
	}
	for i := 0; i < agreed; i++ {
		for _, o := range group {
			if !slotsAgree(&m.Suffix[i], &o.Suffix[i]) {
				agreed = i
				break
			}
		}
	}
	for i := 0; i < agreed; i++ {
		slot := &m.Suffix[i]
		exec := s.MaxExec
		if slot.Seq <= exec {
			continue // a tail overlaps what already executed here
		}
		if slot.Seq != exec+1 {
			break
		}
		s.lhost.ReplaySlot(ctx, slot)
	}
}

// slotsAgree reports whether two responders vouch for the same executed
// slot: one sequence number ordering the same commands. The view is
// advisory (a replica that itself rejoined by transfer records the view it
// learned the slot in) and stays outside agreement.
func slotsAgree(a, b *CatchupSlot) bool {
	if a.Seq != b.Seq || len(a.Reqs) != len(b.Reqs) {
		return false
	}
	for i := range a.Reqs {
		if a.Reqs[i].Cmd.Digest() != b.Reqs[i].Cmd.Digest() {
			return false
		}
	}
	return true
}
