package core

import (
	"bytes"
	"cmp"
	"maps"
	"slices"
	"sort"

	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// This file implements the owner-change protocol (paper §IV-D/E). When a
// command-leader is suspected faulty — through a client's proof of
// misbehaviour (POM) or a RESENDREQ timeout — replicas vote with
// STARTOWNERCHANGE. On f+1 votes a replica commits to the change, stops
// participating in the suspect's instance space and sends the next owner
// its view of that space (OWNERCHANGE): its stable checkpoint of the space
// with the 2f+1 CHECKPOINT votes behind it, and every entry above it with
// the entry's proof. The next owner gathers 2f+1 OWNERCHANGEs and announces
// them in NEWOWNER, which carries that proof and nothing else.
//
// The safe instances G are never shipped. Every replica, the new owner
// included, derives them from a proof it checked with one function,
// adoptOwnerChange: above the highest stable mark the proof proves,
// Condition 1 adopts an entry a client-signed COMMIT with a valid
// certificate proves, Condition 2 an entry f+1 histories report under the
// same leader-signed SPECORDER, and any other slot becomes a no-op.
// Replicas install G and freeze the space: no new commands are ever
// ordered in it, because every replica has its own space.

// changeKey identifies one owner-change round.
type changeKey struct {
	suspect types.ReplicaID
	owner   types.OwnerNumber // the owner number being abandoned
}

// round is this replica's bookkeeping for one owner-change round.
type round struct {
	votes     map[types.ReplicaID]bool // STARTOWNERCHANGE senders
	sent      bool                     // we voted
	committed bool                     // we committed to the change
	// gathered collects OWNERCHANGEs, one per sender, when we are the new
	// owner; announced marks the round whose NEWOWNER we sent.
	gathered  map[types.ReplicaID]*OwnerChange
	announced bool
}

// claim accumulates Condition-2 evidence for one (slot, command) pair.
type claim struct {
	count  int
	sample HistEntry
	deps   types.InstanceSet
	seq    types.SeqNumber
}

// round returns the bookkeeping of one round, creating it.
func (r *Replica) round(key changeKey) *round {
	rd := r.rounds[key]
	if rd == nil {
		rd = &round{}
		r.rounds[key] = rd
	}
	return rd
}

// initiateOwnerChange votes to change the owner of suspect's space (called
// on RESENDREQ timeout or validated POM).
func (r *Replica) initiateOwnerChange(ctx proc.Context, suspect types.ReplicaID) {
	if r.log.space(suspect).frozen {
		return
	}
	key := changeKey{suspect, r.owners[suspect]}
	rd := r.round(key)
	if rd.sent {
		return
	}
	rd.sent = true
	r.sendStartOwnerChange(ctx, key)
	// Count our own vote locally.
	r.recordStartVote(ctx, key, r.cfg.Self)
}

// sendStartOwnerChange broadcasts this replica's vote in a round.
func (r *Replica) sendStartOwnerChange(ctx proc.Context, key changeKey) {
	msg := &StartOwnerChange{Suspect: key.suspect, Owner: key.owner, Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	msg.Sig = engine.SignBody(r.cfg.Auth, msg)
	r.Broadcast(ctx, msg)
}

// handlePOM validates a client's proof of misbehaviour: two SPECORDERs
// signed by the same owner placing the same request at different instances
// (or different requests at the same instance).
func (r *Replica) handlePOM(ctx proc.Context, m *POM) {
	if m.A == nil || m.B == nil || m.Suspect < 0 || int(m.Suspect) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	if m.A.Owner != m.Owner || m.B.Owner != m.Owner {
		r.stats.DroppedInvalid++
		return
	}
	owner := m.Owner.OwnerOf(r.n)
	if owner != m.Suspect {
		r.stats.DroppedInvalid++
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 2)
		if engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(owner), m.A, m.A.Sig) != nil ||
			engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(owner), m.B, m.B.Sig) != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	// Equivocation: the same command ordered at two instances (for batches:
	// any command shared by both batches), or two different batches signed
	// for the same instance.
	equivocated := (m.A.Inst != m.B.Inst && soShareCommand(m.A, m.B)) ||
		(m.A.Inst == m.B.Inst && m.A.CmdDigest != m.B.CmdDigest)
	if !equivocated {
		r.stats.DroppedInvalid++
		return
	}
	r.initiateOwnerChange(ctx, m.Suspect)
}

// soShareCommand reports whether two SPECORDERs order at least one common
// command. Unbatched SPECORDERs compare their signed batch digests (exactly
// the pre-batching check); batched ones compare per-command digests.
func soShareCommand(a, b *SpecOrder) bool {
	if len(a.Batch) == 0 && len(b.Batch) == 0 {
		return a.CmdDigest == b.CmdDigest
	}
	bd := make(map[types.Digest]bool, b.BatchSize())
	for _, d := range b.CmdDigests() {
		bd[d] = true
	}
	for _, d := range a.CmdDigests() {
		if bd[d] {
			return true
		}
	}
	return false
}

// handleStartOwnerChange counts a vote; on f+1 votes the replica commits to
// the change (paper §IV-E).
func (r *Replica) handleStartOwnerChange(ctx proc.Context, m *StartOwnerChange) {
	if m.Suspect < 0 || int(m.Suspect) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	if m.Owner != r.owners[m.Suspect] {
		return // stale or future round
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.recordStartVote(ctx, changeKey{m.Suspect, m.Owner}, m.Replica)
}

// recordStartVote tallies one STARTOWNERCHANGE vote and commits to the
// change at f+1 distinct voters.
func (r *Replica) recordStartVote(ctx proc.Context, key changeKey, from types.ReplicaID) {
	rd := r.round(key)
	if rd.votes == nil {
		rd.votes = make(map[types.ReplicaID]bool, r.f+1)
	}
	rd.votes[from] = true
	if len(rd.votes) < WeakQuorum(r.n) || rd.committed {
		return
	}
	rd.committed = true
	// Stop participating in the suspect's space at this owner number.
	r.log.space(key.suspect).suspended = true
	// Amplify: join the change so every correct replica converges.
	if !rd.sent {
		rd.sent = true
		r.sendStartOwnerChange(ctx, key)
	}

	// From this point the replica no longer participates in the suspect's
	// space at the old owner number.
	newOwnerNum := key.owner + 1
	newOwner := newOwnerNum.OwnerOf(r.n)
	oc := &OwnerChange{
		Suspect:  key.suspect,
		NewOwner: newOwnerNum,
		Replica:  r.cfg.Self,
	}
	if st := r.life.Stable(engine.CheckpointSpace(key.suspect)); st != nil {
		oc.Mark, oc.Digest, oc.Votes = st.Mark, st.Digest, st.Votes
	}
	// Entries at or below the mark would be ignored: every plan starts
	// above the highest mark its proof proves.
	oc.History = r.historyOf(key.suspect, oc.Mark)
	r.cfg.Costs.ChargeSign(ctx)
	oc.Sig = engine.SignBody(r.cfg.Auth, oc)
	if newOwner == r.cfg.Self {
		r.acceptOwnerChange(ctx, oc)
	} else {
		r.Send(ctx, types.ReplicaNode(newOwner), oc)
	}
}

// historyOf serializes this replica's view of a space above slot floor:
// every known entry with its strongest proof.
func (r *Replica) historyOf(suspect types.ReplicaID, floor uint64) []HistEntry {
	sp := r.log.space(suspect)
	slots := r.retained(int(suspect), floor)
	hist := make([]HistEntry, 0, len(slots))
	for _, slot := range slots {
		e := sp.entries[slot]
		status := HistSpecOrdered
		if e.status >= StatusCommitted {
			status = HistCommitted
		}
		hist = append(hist, e.hist(status)) // batches are reported whole
	}
	return hist
}

// handleOwnerChange collects histories when this replica is the prospective
// new owner.
func (r *Replica) handleOwnerChange(ctx proc.Context, m *OwnerChange) {
	if m.Suspect < 0 || int(m.Suspect) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	if m.NewOwner.OwnerOf(r.n) != r.cfg.Self || m.NewOwner != r.owners[m.Suspect]+1 {
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.acceptOwnerChange(ctx, m)
}

// acceptOwnerChange gathers one OWNERCHANGE at the new owner. At 2f+1 it
// announces them in NEWOWNER and adopts them as every other replica will.
func (r *Replica) acceptOwnerChange(ctx proc.Context, m *OwnerChange) {
	rd := r.round(changeKey{m.Suspect, m.NewOwner - 1})
	if rd.announced {
		return
	}
	if rd.gathered == nil {
		rd.gathered = make(map[types.ReplicaID]*OwnerChange, SlowQuorum(r.n))
	}
	rd.gathered[m.Replica] = m
	// The paper's §IV-E text says f+1 OWNERCHANGE messages suffice, but its
	// own Stability argument (§IV-F) requires 2f+1 histories — with only
	// f+1, a slow-path commit known to a single correct replica can be
	// missed and overwritten by a no-op. We follow the stronger 2f+1.
	if len(rd.gathered) < SlowQuorum(r.n) {
		return
	}
	rd.announced = true
	proof := make([]*OwnerChange, 0, len(rd.gathered))
	for _, oc := range rd.gathered {
		proof = append(proof, oc)
	}
	rd.gathered = nil
	slices.SortFunc(proof, func(a, b *OwnerChange) int { return cmp.Compare(a.Replica, b.Replica) })
	msg := &NewOwnerMsg{
		Suspect:     m.Suspect,
		NewOwnerNum: m.NewOwner,
		Replica:     r.cfg.Self,
		Proof:       proof,
	}
	r.cfg.Costs.ChargeSign(ctx)
	msg.Sig = engine.SignBody(r.cfg.Auth, msg)
	r.Broadcast(ctx, msg)
	r.adoptOwnerChange(ctx, m.Suspect, m.NewOwner, proof)
	r.stats.OwnerChanges++
}

// adoptOwnerChange is where an owner change takes effect, at the new owner
// and at every other replica alike. It keeps one validly signed
// OWNERCHANGE per replica for the round, in replica order — Condition 1
// takes the first valid COMMIT per slot, so the plan must not depend on
// the order the sender chose — refuses fewer than 2f+1 of them, derives
// the safe instances from them and installs those. It reports whether the
// proof held.
func (r *Replica) adoptOwnerChange(ctx proc.Context, suspect types.ReplicaID, num types.OwnerNumber, proof []*OwnerChange) bool {
	byReplica := make([]*OwnerChange, r.n)
	valid := 0
	for _, oc := range proof {
		if oc.Suspect != suspect || oc.NewOwner != num || oc.Replica < 0 || int(oc.Replica) >= r.n ||
			byReplica[oc.Replica] != nil {
			continue
		}
		if oc.SigVerified() || engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(oc.Replica), oc, oc.Sig) == nil {
			byReplica[oc.Replica] = oc
			valid++
		}
	}
	if valid < SlowQuorum(r.n) {
		return false
	}
	checked := slices.DeleteFunc(byReplica, func(oc *OwnerChange) bool { return oc == nil })
	r.applyNewOwner(ctx, suspect, num, r.selectSafeHistory(ctx, changeKey{suspect, num - 1}, checked))
	return true
}

// proofBase is the highest stable mark of the suspect's space that a
// history in the proof carries with 2f+1 valid CHECKPOINT votes. Slots at
// or below it were executed by 2f+1 replicas — every functioning quorum
// already reflects them — so a plan neither re-finalizes them nor fills
// them with no-ops, at any replica, however far it truncated itself.
func (r *Replica) proofBase(ctx proc.Context, suspect types.ReplicaID, proof []*OwnerChange) uint64 {
	byMark := slices.SortedFunc(slices.Values(proof), func(a, b *OwnerChange) int { return cmp.Compare(b.Mark, a.Mark) })
	for _, oc := range byMark {
		if oc.Mark == 0 {
			break
		}
		r.cfg.Costs.ChargeVerify(ctx, len(oc.Votes))
		if r.life.ProofValid(engine.CheckpointSpace(suspect), oc.Mark, oc.Digest, oc.Votes) {
			return oc.Mark
		}
	}
	return 0
}

// selectSafeHistory computes the safe instance set G from the collected
// histories, per slot:
//
//   - Condition 1: an entry backed by a valid client-signed COMMIT with the
//     current owner number, whose certificate holds (validateCert) for the
//     entry's leader-signed SPECORDER and combines to the COMMIT's
//     dependencies and sequence number, is adopted as committed.
//   - Condition 2: entries reported spec-ordered by at least f+1 histories
//     with matching instance and command are adopted; their dependency sets
//     are unioned and the maximum sequence number taken (at least one of
//     the f+1 reporters is correct).
//   - Otherwise the slot is unrecoverable and is finalized as a no-op.
func (r *Replica) selectSafeHistory(ctx proc.Context, key changeKey, proof []*OwnerChange) []HistEntry {
	bySlot := make(map[uint64]map[types.Digest]*claim)
	var committed []HistEntry
	committedSlots := make(map[uint64]bool)
	maxSlot := uint64(0)
	// The plan starts above the proof's stable mark. It also ends at most a
	// history's length above it, so a history that claims a far slot cannot
	// make every replica fill the gap with no-ops.
	base := r.proofBase(ctx, key.suspect, proof)

	for _, oc := range proof {
		for _, h := range oc.History {
			if h.Inst.Space != key.suspect || h.Owner != key.owner || h.Inst.Slot <= base || h.Inst.Slot > base+maxHistory {
				continue
			}
			maxSlot = max(maxSlot, h.Inst.Slot)
			// Condition 1: client-signed COMMIT proves the entry outright.
			// The COMMIT signature covers (client, timestamp, instance,
			// deps, seq) but not the commands, so the reported commands must
			// additionally be bound to a leader-signed SPECORDER for the
			// same instance — otherwise a byzantine history sender could
			// pair a genuine COMMIT with substituted commands (whole
			// batches ride along, so the check covers every command). And
			// the client's word alone proves nothing: its certificate must
			// hold as a replica receiving the COMMIT would check it, with
			// 2f+1 replicas vouching for that SPECORDER's proposal and
			// their replies combining to the decision the client claims.
			if h.Status == HistCommitted && h.ClientCommit != nil && !committedSlots[h.Inst.Slot] &&
				h.SO != nil && h.SO.Inst == h.Inst && histBoundToSO(&h) {
				cc := h.ClientCommit
				// One verification here and one in validateCert: the two
				// this proof was always charged.
				r.cfg.Costs.ChargeVerify(ctx, 1)
				// The Verified mark binds the SPECORDER signature to its own
				// Owner field; it substitutes for the key.owner check only
				// when the two owner rounds agree.
				if cc.Inst == h.Inst &&
					(cc.SigVerified() || engine.VerifyBody(r.cfg.Auth, types.ClientNode(cc.Client), cc, cc.Sig) == nil) &&
					r.validateCert(ctx, h.Inst, cc, SlowQuorum(r.n)) && certVouchesFor(cc.Cert[0], h.SO, key.owner) &&
					((h.SO.Owner == key.owner && h.SO.SigVerified()) ||
						engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(key.owner.OwnerOf(r.n)), h.SO, h.SO.Sig) == nil) {
					committedSlots[h.Inst.Slot] = true
					committed = append(committed, HistEntry{
						Inst: h.Inst, Status: HistCommitted, Cmd: h.Cmd, Batch: h.Batch,
						Deps: cc.Deps.Clone(), Seq: cc.Seq, Owner: key.owner,
					})
					continue
				}
			}
			// Condition 2 accumulation: leader-signed SPECORDER claims.
			if h.SO == nil || h.SO.Inst != h.Inst || !histBoundToSO(&h) {
				continue
			}
			slotClaims, ok := bySlot[h.Inst.Slot]
			if !ok {
				slotClaims = make(map[types.Digest]*claim)
				bySlot[h.Inst.Slot] = slotClaims
			}
			c, ok := slotClaims[h.SO.CmdDigest]
			if !ok {
				c = &claim{sample: h, deps: types.NewInstanceSet()}
				slotClaims[h.SO.CmdDigest] = c
			}
			c.count++
			c.deps.Union(h.Deps)
			c.seq = max(c.seq, h.Seq)
		}
	}

	safe := committed
	for slot := base + 1; slot <= maxSlot; slot++ {
		if committedSlots[slot] {
			continue
		}
		var chosen *claim
		if slotClaims, ok := bySlot[slot]; ok {
			for _, digest := range sortedDigests(slotClaims) {
				c := slotClaims[digest]
				if c.count >= WeakQuorum(r.n) {
					// Verify one representative SPECORDER signature. The mark
					// only substitutes when it binds the same owner round.
					r.cfg.Costs.ChargeVerify(ctx, 1)
					owner := key.owner.OwnerOf(r.n)
					if (c.sample.SO.Owner == key.owner && c.sample.SO.SigVerified()) ||
						engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(owner), c.sample.SO, c.sample.SO.Sig) == nil {
						chosen = c
						break
					}
				}
			}
		}
		inst := types.InstanceID{Space: key.suspect, Slot: slot}
		if chosen != nil {
			safe = append(safe, HistEntry{
				Inst: inst, Status: HistCommitted, Cmd: chosen.sample.Cmd, Batch: chosen.sample.Batch,
				Deps: chosen.deps.Clone(), Seq: chosen.seq, Owner: key.owner, SO: chosen.sample.SO,
			})
		} else {
			// Unrecoverable: finalize as a no-op so dependents can execute.
			safe = append(safe, HistEntry{
				Inst: inst, Status: HistCommitted,
				Cmd:  types.Command{Op: types.OpNoop},
				Deps: types.NewInstanceSet(), Seq: 0, Owner: key.owner,
			})
		}
	}
	sort.Slice(safe, func(i, j int) bool { return safe[i].Inst.Less(safe[j].Inst) })
	return safe
}

// certVouchesFor reports whether a valid certificate's first reply — and
// with it every reply — vouches for proposal so in owner round owner.
func certVouchesFor(first *SpecReply, so *SpecOrder, owner types.OwnerNumber) bool {
	ref := first.CmdDigest // a batch of one's digest is its command's
	if first.Batched {
		ref = first.SORef
	}
	return first.Owner == owner && ref == so.CmdDigest
}

// handleNewOwner checks a NEWOWNER's header and signature and adopts the
// owner change its proof supports.
func (r *Replica) handleNewOwner(ctx proc.Context, m *NewOwnerMsg) {
	if m.Suspect < 0 || int(m.Suspect) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	if m.NewOwnerNum != r.owners[m.Suspect]+1 || m.NewOwnerNum.OwnerOf(r.n) != m.Replica {
		return
	}
	r.cfg.Costs.ChargeVerify(ctx, 1+len(m.Proof))
	if !m.SigVerified() {
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	if !r.adoptOwnerChange(ctx, m.Suspect, m.NewOwnerNum, m.Proof) {
		r.stats.DroppedInvalid++
	}
}

// applyNewOwner installs the safe instances this replica derived, freezes
// the space, and bumps the owner number. Requests that were waiting on the
// faulty leader are re-proposed in this replica's own space.
func (r *Replica) applyNewOwner(ctx proc.Context, suspect types.ReplicaID, num types.OwnerNumber, safe []HistEntry) {
	sp := r.log.space(suspect)
	if r.owners[suspect] >= num {
		return // already applied
	}
	r.owners[suspect] = num
	sp.frozen = true
	sp.suspended = false
	sp.pending = make(map[uint64]*SpecOrder)
	// Parked evidence-slimmed commit decisions for the retired space are
	// superseded by the owner change's authoritative history; drop them
	// (acceptSpecOrder, their normal drain, never runs for a frozen space).
	for inst := range r.deferredCommits {
		if inst.Space == suspect {
			delete(r.deferredCommits, inst)
		}
	}

	for i := range safe {
		h := &safe[i]
		if h.Inst.Space != suspect || h.Inst.Slot <= sp.truncated {
			// Slots below the local truncation point are stable-executed and
			// freed; a new owner with a lower watermark may still report them.
			continue
		}
		e := r.log.get(h.Inst)
		if e == nil {
			e = r.newEntry()
			*e = entry{
				inst:  h.Inst,
				owner: h.Owner,
				so:    h.SO,
			}
			r.log.put(e)
			for j := 0; j < h.BatchSize(); j++ {
				cmd := h.CmdAt(j)
				if !cmd.IsNoop() {
					r.instByCmd[cmdKey{cmd.Client, cmd.Timestamp}] = h.Inst
				}
			}
		}
		if e.status >= StatusExecuted {
			continue
		}
		// Install the safe entry's content — the whole batch, never a
		// fragment of one — so every replica finalizes identical commands.
		e.setCmds(h)
		e.deps = h.Deps.Clone()
		e.seq = h.Seq
		e.status = StatusCommitted
		// The installed content may differ from what a pending slow-path
		// COMMIT referred to (different batch, or a no-op): drop reply
		// obligations that no longer name a command of this entry — the
		// affected client re-drives its request at a live leader.
		if l := e.commitReplyTo; l != nil {
			l.list = slices.DeleteFunc(l.list, func(rt replyTo) bool {
				return int(rt.idx) >= e.nCmds() || e.cmdAt(int(rt.idx)).Client != rt.client
			})
		}
		for j := 0; j < e.nCmds(); j++ {
			r.deps.update(e.inst, e.cmdAt(j), e.seq)
		}
		r.pendingExec[e.inst] = e
	}
	r.tryExecute(ctx)

	// Purge request bookkeeping that points into the retired space unless
	// the owner change committed that exact request there: stale cached
	// replies would otherwise stop retry rotation from re-leading requests
	// that were lost with the faulty leader.
	for key, inst := range r.instByCmd {
		if inst.Space != suspect {
			continue
		}
		e := r.log.get(inst)
		if e == nil || e.status < StatusCommitted ||
			e.cmd.Client != key.client || e.cmd.Timestamp != key.ts {
			delete(r.instByCmd, key)
			delete(r.replyCache, key)
		}
	}

	// Requests stuck waiting on the faulty leader are the client's to
	// re-drive (retry rotation picks a live leader); just drop the waits.
	for key, rs := range r.resendWait {
		if rs.req.Orig == suspect {
			delete(r.resendWait, key)
			r.ForgetTimer(rs.timer)
		}
	}
}

// Frozen reports whether a space has been frozen by an owner change
// (inspection helper).
func (r *Replica) Frozen(space types.ReplicaID) bool { return r.log.space(space).frozen }

// OwnerNumber returns the current owner number of a space (inspection
// helper).
func (r *Replica) OwnerNumber(space types.ReplicaID) types.OwnerNumber { return r.owners[space] }

// histBoundToSO reports whether a history entry's commands are exactly the
// ones its SPECORDER proof signs: same batch size, same per-command
// digests, and a signed batch digest that binds them. For unbatched entries
// this is the pre-batching d = H(m) check plus the (strictly stronger)
// requirement that the embedded request matches the signed digest.
func histBoundToSO(h *HistEntry) bool {
	so := h.SO
	digests, d := h.digests()
	if so.CmdDigest != d || h.BatchSize() != so.BatchSize() {
		return false
	}
	if digests == nil {
		return so.ReqAt(0).Cmd.Digest() == d
	}
	for i := range digests {
		if digests[i] != so.ReqAt(i).Cmd.Digest() {
			return false
		}
	}
	return true
}

func sortedDigests(m map[types.Digest]*claim) []types.Digest {
	out := slices.Collect(maps.Keys(m))
	slices.SortFunc(out, func(a, b types.Digest) int { return bytes.Compare(a[:], b[:]) })
	return out
}
