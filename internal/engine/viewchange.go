package engine

import (
	"bytes"
	"cmp"
	"maps"
	"slices"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// The view change PBFT, Zyzzyva and FaB share.
//
// A backup whose forwarded request is not ordered within ForwardTimeout
// asks for the next view with a VIEW-CHANGE; a replica holding VIEW-CHANGEs
// of f+1 others for later views joins the lowest of them; one that sees no
// NEW-VIEW within 2 × ForwardTimeout asks for the view after, and waits
// twice as long for each further view it asks for. A VIEW-CHANGE carries
// the sender's stable checkpoint with its 2f+1 votes and, for each slot
// above it, the highest-view quorum certificate of the protocol it holds
// there with the frame it certifies (kept through later views until a newer
// one forms: Hold), else the primary-signed ordering frame it accepted.
// Every part verifies by itself: a faulty sender can withhold slots but not
// invent them.
//
// The new primary's NEW-VIEW carries 2f+1 VIEW-CHANGEs, its own among
// them, and every replica checks them and recomputes the same plan: from
// the highest proven stable mark, per sequence number, the highest-view
// certified batch; else a frame f+1 of them report (a batch 3f+1 replicas
// executed, like one a Zyzzyva client completed on its fast path, is
// reported by f+1 of any 2f+1); else the frame the new primary reports,
// which gives it no power it lacks as primary; else a no-op. An
// uncertified batch that repeats a request already planned is passed over.
// Each planned slot is accepted again in the new view through the
// protocol's own acceptance (ViewHost.Adopt); a replica that executed the
// same batch there votes without executing it twice, which is what
// re-synchronises a replica an equivocating primary left behind.
//
// Limits: Zyzzyva keeps no undo log, so a replica that speculatively
// executed a batch the plan replaces (both of an equivocating primary's
// conflicting frames executed) keeps that slot and stays diverged; and only
// a FaB learner holds the accept certificate of what it learned.

// CertVote is one signed vote of a quorum certificate.
type CertVote interface {
	SignedMessage
	// Voted returns what was voted for, by whom, and the signature.
	Voted() (view, seq uint64, digest types.Digest, from types.ReplicaID, sig []byte)
}

// ViewHost is a protocol's half of the view change.
type ViewHost[S Slot] interface {
	// NewSlot returns an empty slot for seq.
	NewSlot(seq uint64) S
	// Adopt runs the protocol's acceptance of a slot a NEW-VIEW ordered in
	// the current view (its batch filled in). A slot that already executed
	// the batch keeps its results and must not execute again.
	Adopt(ctx proc.Context, slot S)
	// Certificate returns the quorum certificate slot holds, or nil.
	Certificate(slot S) []codec.Message
	// CheckCert validates a reported certificate for the batch digest frame
	// orders at seq (a nil frame: a no-op, digest zero).
	CheckCert(ctx proc.Context, seq uint64, frame codec.Message, digest types.Digest, cert []codec.Message) bool
	// EnteredView runs when the replica enters a view, after the old views'
	// unexecuted slots are dropped and before a NEW-VIEW's are adopted.
	EnteredView(ctx proc.Context, view uint64)
}

func (s *Sequencer[R, P, Y, S]) primaryOf(view uint64) types.ReplicaID {
	return types.ReplicaID(view % uint64(s.cfg.N))
}

func (s *Sequencer[R, P, Y, S]) faults() int { return (s.cfg.N - 1) / 3 }

// startViewChange broadcasts this replica's VIEW-CHANGE for view: its
// stable checkpoint with the proof, and every accepted slot above it that
// it can prove — unless it already asked for that view or a later one.
func (s *Sequencer[R, P, Y, S]) startViewChange(ctx proc.Context, view uint64) {
	if view <= s.view || (s.InVC && view <= s.vcTarget) {
		return
	}
	s.InVC, s.vcTarget = true, view
	vc := &ViewChange{View: view, Replica: s.cfg.Self, tag: s.vtags.ViewChange}
	if st := s.life.Stable(0); st != nil {
		vc.Mark, vc.Digest, vc.Proof = st.Mark, st.Digest, st.Votes
	}
	vc.Entries = s.HeldCerts()
	for seq, slot := range s.Log {
		// A slot installed without its frame (from a transfer or a
		// write-ahead log) proves nothing uncertified.
		if b := slot.Ordered(); seq > vc.Mark && b.Accepted && b.Frame != nil && s.certs[seq].Cert == nil {
			vc.Entries = append(vc.Entries, ViewEntry{Seq: seq, Frame: b.Frame})
		}
	}
	slices.SortFunc(vc.Entries, func(a, b ViewEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	vc.Entries = vc.Entries[:min(len(vc.Entries), maxViewSlots)]
	s.cfg.Costs.ChargeSign(ctx)
	vc.Sig = SignBody(s.cfg.Auth, vc)
	s.Broadcast(ctx, vc)
	// The wait doubles with each view this episode has asked for in vain.
	s.AfterTimer(ctx, (2*s.cfg.ForwardTimeout)<<min(view-s.view-1, 8), func(ctx proc.Context) {
		if s.InVC && s.vcTarget == view {
			s.startViewChange(ctx, view+1)
		}
	})
	s.recordViewChange(ctx, vc)
}

// recordViewChange keeps each replica's VIEW-CHANGE for the highest view it
// asked for — n entries however many views a faulty replica names — joins
// a view change f+1 others ask for, and lets the new primary start its
// view once 2f+1 replicas, itself among them, asked for it.
func (s *Sequencer[R, P, Y, S]) recordViewChange(ctx proc.Context, m *ViewChange) {
	if prev := s.vcs[m.Replica]; prev != nil && prev.View >= m.View {
		return
	}
	s.vcs[m.Replica] = m
	base := s.view
	if s.InVC {
		base = s.vcTarget
	}
	var later []uint64
	for _, vc := range s.vcs {
		if vc.View > base {
			later = append(later, vc.View)
		}
	}
	if len(later) > s.faults() {
		s.startViewChange(ctx, slices.Min(later))
	}
	view := m.View
	if !s.InVC || s.vcTarget != view || s.primaryOf(view) != s.cfg.Self {
		return
	}
	var set []*ViewChange
	others := 0
	for id := types.ReplicaID(0); int(id) < s.cfg.N; id++ {
		vc := s.vcs[id]
		if vc == nil || vc.View != view || (id != s.cfg.Self && others == 2*s.faults()) {
			continue
		}
		if id != s.cfg.Self {
			others++
		}
		set = append(set, vc)
	}
	if others < 2*s.faults() {
		return
	}
	nv := &NewView{View: view, Replica: s.cfg.Self, Changes: set, tag: s.vtags.NewView}
	s.cfg.Costs.ChargeSign(ctx)
	nv.Sig = SignBody(s.cfg.Auth, nv)
	s.enterNewView(ctx, nv)
}

// validNewView reports whether a NEW-VIEW comes from its view's primary and
// carries 2f+1 valid VIEW-CHANGEs for that view from distinct replicas.
func (s *Sequencer[R, P, Y, S]) validNewView(ctx proc.Context, m *NewView) bool {
	if m.Replica != s.primaryOf(m.View) || len(m.Changes) <= 2*s.faults() || len(m.Changes) > s.cfg.N ||
		!s.verified(ctx, m.Replica, m, m.Sig) {
		return false
	}
	seen := make([]bool, s.cfg.N)
	for _, vc := range m.Changes {
		if vc.View != m.View || !s.validViewChange(ctx, vc) || seen[vc.Replica] {
			return false
		}
		seen[vc.Replica] = true
	}
	return true
}

// validViewChange checks a VIEW-CHANGE: its signature, the proof of its
// stable mark, and each entry — above the mark in ascending order, a valid
// frame of an earlier view at its sequence number, and a valid certificate
// of an earlier view where one is reported.
func (s *Sequencer[R, P, Y, S]) validViewChange(ctx proc.Context, m *ViewChange) bool {
	if m.Replica < 0 || int(m.Replica) >= s.cfg.N || !s.verified(ctx, m.Replica, m, m.Sig) {
		return false
	}
	if m.Mark > 0 {
		s.cfg.Costs.ChargeVerify(ctx, len(m.Proof))
		if !s.life.ProofValid(0, m.Mark, m.Digest, m.Proof) {
			return false
		}
	}
	prev := m.Mark
	for i := range m.Entries {
		e := &m.Entries[i]
		var digest types.Digest
		if f, ok := e.Frame.(Frame[P]); ok {
			view, seq, d := f.Position()
			if seq != e.Seq || view >= m.View || s.CheckFrame(ctx, f, s.primaryOf(view), d) == nil {
				return false
			}
			digest = d
		} else if e.Frame != nil || len(e.Cert) == 0 {
			return false
		}
		if e.Seq <= prev || (len(e.Cert) > 0 &&
			(certView(e.Cert) >= m.View || !s.vhost.CheckCert(ctx, e.Seq, e.Frame, digest, e.Cert))) {
			return false
		}
		prev = e.Seq
	}
	return true
}

// verified checks a replica's signature on m, unless the transport did.
func (s *Sequencer[R, P, Y, S]) verified(ctx proc.Context, from types.ReplicaID, m SignedMessage, sig []byte) bool {
	if m.SigVerified() {
		return true
	}
	s.cfg.Costs.ChargeVerify(ctx, 1)
	return VerifyBody(s.cfg.Auth, types.ReplicaNode(from), m, sig) == nil
}

// AdmitVote reports whether a phase vote counts: cast in the current view,
// outside a view change, and signed by its voter (a bad signature is
// counted as dropped).
func (s *Sequencer[R, P, Y, S]) AdmitVote(ctx proc.Context, v CertVote) bool {
	view, _, _, from, sig := v.Voted()
	if view != s.view || s.InVC {
		return false
	}
	if from < 0 || int(from) >= s.cfg.N || !s.verified(ctx, from, v, sig) {
		s.dropped++
		return false
	}
	return true
}

// certView returns the view a certificate's votes were cast in.
func certView(cert []codec.Message) uint64 {
	if v, ok := cert[0].(CertVote); ok {
		view, _, _, _, _ := v.Voted()
		return view
	}
	return 0
}

// CheckVotes validates a certificate as at least q signed votes of distinct
// replicas for seq and digest in one view — cast by backups only when
// backups is set (the view's primary voted by proposing).
func (s *Sequencer[R, P, Y, S]) CheckVotes(ctx proc.Context, cert []codec.Message, seq uint64, digest types.Digest, q int, backups bool) bool {
	if len(cert) < q || len(cert) > s.cfg.N {
		return false
	}
	view := certView(cert)
	seen := make([]bool, s.cfg.N)
	for _, c := range cert {
		v, ok := c.(CertVote)
		if !ok {
			return false
		}
		vw, sq, d, from, sig := v.Voted()
		if vw != view || sq != seq || d != digest || from < 0 || int(from) >= s.cfg.N || seen[from] ||
			(backups && from == s.primaryOf(view)) || !s.verified(ctx, from, v, sig) {
			return false
		}
		seen[from] = true
	}
	return true
}

// plan returns what a NEW-VIEW orders first (see the top of this file): the
// stable mark it starts from with its proof, and one frame per sequence
// number above it (nil: a no-op). Every replica computes the same plan.
func (s *Sequencer[R, P, Y, S]) plan(nv *NewView) (start uint64, proof []*Checkpoint, frames []codec.Message) {
	for _, vc := range nv.Changes {
		if vc.Mark > start {
			start, proof = vc.Mark, vc.Proof
		}
	}
	type report struct {
		seq    uint64
		digest types.Digest
	}
	type tally struct {
		frame   codec.Message
		reports int
		cert    uint64 // 1 + the highest certified view; 0 uncertified
		primary bool
	}
	tallies := make(map[report]*tally)
	var keys []report
	for _, vc := range nv.Changes {
		for _, e := range vc.Entries {
			if e.Seq <= start || e.Seq > start+maxViewSlots {
				continue
			}
			k := report{seq: e.Seq}
			if f, ok := e.Frame.(Frame[P]); ok {
				_, _, k.digest = f.Position()
			}
			t := tallies[k]
			if t == nil {
				t = &tally{frame: e.Frame}
				tallies[k] = t
				keys = append(keys, k)
			}
			t.reports++
			t.primary = t.primary || vc.Replica == nv.Replica
			if len(e.Cert) > 0 {
				t.cert = max(t.cert, certView(e.Cert)+1)
			}
		}
	}
	rank := func(t *tally) uint64 {
		switch {
		case t.cert > 0:
			return 2 + t.cert
		case t.reports > s.faults():
			return 2
		case t.primary:
			return 1
		}
		return 0
	}
	// Certified batches first, so an uncertified one cannot claim their
	// requests; then by sequence number and rank.
	slices.SortFunc(keys, func(a, b report) int {
		ta, tb := tallies[a], tallies[b]
		return cmp.Or(cmp.Compare(min(tb.cert, 1), min(ta.cert, 1)), cmp.Compare(a.seq, b.seq),
			cmp.Compare(rank(tb), rank(ta)), bytes.Compare(a.digest[:], b.digest[:]))
	})
	chosen := make(map[uint64]codec.Message)
	planned := make(map[ReqKey]bool)
	for _, k := range keys {
		t := tallies[k]
		if _, done := chosen[k.seq]; done || rank(t) == 0 {
			continue
		}
		var reqs []ReqKey
		if f, ok := t.frame.(Frame[P]); ok {
			for i := 0; i < f.BatchSize(); i++ {
				reqs = append(reqs, KeyOf(f.ReqAt(i).Command()))
			}
		}
		if t.cert == 0 && slices.ContainsFunc(reqs, func(r ReqKey) bool { return planned[r] }) {
			continue
		}
		chosen[k.seq] = t.frame
		for _, r := range reqs {
			planned[r] = true
		}
	}
	end := start
	for seq := range chosen {
		end = max(end, seq)
	}
	frames = make([]codec.Message, end-start)
	for seq, f := range chosen {
		frames[seq-start-1] = f
	}
	return start, proof, frames
}

// enterNewView enters the view nv starts and adopts its plan; the new
// primary broadcasts nv once the view is logged, before its first vote in
// it. A slot this replica executed keeps its batch and results if the plan
// orders the same batch there (and is left alone if not: see the limits
// above); one it executed and truncated is skipped. A replica behind the
// plan's stable mark tallies its proof, which fetches the state there.
func (s *Sequencer[R, P, Y, S]) enterNewView(ctx proc.Context, nv *NewView) {
	start, proof, frames := s.plan(nv)
	s.enterView(ctx, nv.View)
	if nv.Replica == s.cfg.Self {
		s.Broadcast(ctx, nv)
	}
	s.viewChanges++
	if start > s.MaxExec {
		s.life.RecordProof(ctx, proof)
	}
	for i, frame := range frames {
		seq := start + 1 + uint64(i)
		var digest types.Digest
		if f, ok := frame.(Frame[P]); ok {
			_, _, digest = f.Position()
		}
		slot, had := s.Log[seq]
		switch {
		case had && slot.Ordered().Digest == digest:
			b := slot.Ordered()
			b.View, b.Frame = s.view, frame
			for i := range b.Cmds {
				s.Assign(&b.Cmds[i], seq)
			}
		case had || seq <= s.MaxExec:
			continue
		default:
			slot = s.vhost.NewSlot(seq)
			s.Place(slot, s.view, frame, digest, nil)
		}
		s.vhost.Adopt(ctx, slot)
	}
	s.NextSeq = start + uint64(len(frames)) + 1
}

// SlotAt returns the slot at seq, putting an empty one (ViewHost.NewSlot)
// in the log if there is none.
func (s *Sequencer[R, P, Y, S]) SlotAt(seq uint64) S {
	slot, ok := s.Log[seq]
	if !ok {
		slot = s.vhost.NewSlot(seq)
		s.Log[seq] = slot
	}
	return slot
}

// Place fills slot's batch from an ordering frame accepted in view (nil: a
// no-op) whose batch digest is digest, with the per-command digests (nil
// computes them), enters its commands in the exactly-once table, logs the
// slot (WALPlace), and puts it in the log.
func (s *Sequencer[R, P, Y, S]) Place(slot S, view uint64, frame codec.Message, digest types.Digest, digests []types.Digest) {
	b := slot.Ordered()
	b.View, b.Frame, b.Digest, b.Accepted = view, frame, digest, true
	s.Log[b.Seq] = slot
	f, ok := frame.(Frame[P])
	if !ok {
		s.logPlace(b.Seq, view, 0, nil)
		return
	}
	b.Cmds = make([]types.Command, f.BatchSize())
	b.Digests = digests
	if digests == nil {
		b.Digests = make([]types.Digest, f.BatchSize())
	}
	for i := range b.Cmds {
		b.Cmds[i] = *f.ReqAt(i).Command()
		if digests == nil {
			b.Digests[i] = b.Cmds[i].Digest()
		}
		s.Assign(&b.Cmds[i], b.Seq)
	}
	// The primary's own proposal in its view was logged when flush assigned
	// it.
	if fview, _, _ := f.Position(); fview != s.view || !s.IsPrimary() {
		s.logPlace(b.Seq, view, len(b.Cmds), f.ReqAt)
	}
}

// enterView enters a later view: logged (WALView), the Sequencer's reset,
// the old views' unexecuted slots dropped (their requests may be ordered
// again, and their certificates stay held), and the protocol's hook.
func (s *Sequencer[R, P, Y, S]) enterView(ctx proc.Context, view uint64) {
	s.Append(WALView, func(w *codec.Writer) { w.Uvarint(view) })
	s.HeldCerts()
	s.EnterView(view)
	for seq, slot := range s.Log {
		if b := slot.Ordered(); !b.Executed {
			for i := range b.Cmds {
				if key := KeyOf(&b.Cmds[i]); s.byCmd[key] == seq {
					delete(s.byCmd, key)
				}
			}
			delete(s.Log, seq)
		}
	}
	s.vhost.EnteredView(ctx, view)
}

// Hold keeps e's certificate as the one held for its sequence number unless
// one of a later view is held already. A held certificate outlives its
// slot's being dropped or ordered again in a later view, until one of a
// later view forms, as PBFT's P-set does: the new view's votes may never
// form, and the certificate may be the only proof a batch committed.
func (s *Sequencer[R, P, Y, S]) Hold(e ViewEntry) {
	if old, ok := s.certs[e.Seq]; len(e.Cert) > 0 && (!ok || certView(e.Cert) > certView(old.Cert)) {
		s.certs[e.Seq] = e
	}
}

// Certify logs slot's certificate as it forms (WALHold), before the vote
// it backs leaves, so a restarted replica still holds it (Hold) and
// reports it in its VIEW-CHANGEs.
func (s *Sequencer[R, P, Y, S]) Certify(slot S) {
	if b := slot.Ordered(); provable(b) {
		s.Append(WALHold, func(w *codec.Writer) {
			e := ViewEntry{Seq: b.Seq, Frame: b.Frame, Cert: s.vhost.Certificate(slot)}
			e.MarshalTo(w)
		})
	}
}

// provable reports whether an accepted batch can be reported with a
// certificate: a slot installed without its frame proves only a no-op.
func provable(b *Batch) bool { return b.Accepted && (b.Frame != nil || len(b.Cmds) == 0) }

// HeldCerts holds every slot's certificate, forgets those at or below the
// stable mark, and returns the rest in sequence order.
func (s *Sequencer[R, P, Y, S]) HeldCerts() []ViewEntry {
	for seq, slot := range s.Log {
		if provable(slot.Ordered()) {
			s.Hold(ViewEntry{Seq: seq, Frame: slot.Ordered().Frame, Cert: s.vhost.Certificate(slot)})
		}
	}
	var held []ViewEntry
	for _, seq := range slices.Sorted(maps.Keys(s.certs)) {
		if seq <= s.life.Mark(0) {
			delete(s.certs, seq)
		} else {
			held = append(held, s.certs[seq])
		}
	}
	return held
}

// AdoptView implements SeqLogHost for a protocol that follows the view a
// state transfer vouches for: it enters it as a NEW-VIEW would, without a
// plan.
func (s *Sequencer[R, P, Y, S]) AdoptView(ctx proc.Context, view uint64) {
	if view > s.view {
		s.enterView(ctx, view)
	}
}
