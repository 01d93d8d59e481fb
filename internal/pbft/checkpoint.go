package pbft

import (
	"bytes"
	"sort"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// sortedResponders returns the buffered responders in ID order, so group
// formation and install-source choice are deterministic.
func sortedResponders(resps map[types.ReplicaID]*CatchupResp) []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(resps))
	for id := range resps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// This file implements PBFT's log lifecycle on the engine-level
// checkpointing contract (engine.CheckpointTracker): the protocol's
// existing CHECKPOINT traffic (tag 35, wire-unchanged) now establishes
// stable checkpoints through the shared tracker, truncation actually frees
// the per-request bookkeeping (byCmd / replyCache) alongside the slot map,
// and a replica that falls behind the low-water mark rejoins through
// checkpoint-based state transfer.
//
// Unlike ezBFT (whose replicas pass through no common application states),
// PBFT executes sequentially: the application state at sequence number n is
// identical at every correct replica, and the stable checkpoint's agreed
// digest covers it. The transferred snapshot is therefore fully verifiable:
// the requester restores it and checks the application digest against the
// 2f+1-signed checkpoint digest. The suffix (executed slots above the
// checkpoint) has no quorum digest to check against, so it is
// cross-validated instead: the requester solicits f+1 distinct responders,
// installs only once f+1 of them agree on the transfer, and replays only
// the suffix prefix every agreeing responder vouches for — at least one of
// any f+1 is correct, so a single liar (even one that also voted the
// checkpoint) can neither corrupt the install nor wedge it (rotation
// reaches f+1 correct responders). Disagreeing responders are flagged in
// CatchupMismatches and their responses discarded.
const (
	tagCatchupReq  = 38
	tagCatchupResp = 39
)

// CatchupReq asks a peer for a state transfer, ⟨CATCHUP-REQ, i⟩σi.
type CatchupReq struct {
	Replica types.ReplicaID
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *CatchupReq) Tag() uint8 { return tagCatchupReq }

// MarshalTo implements codec.Message.
func (m *CatchupReq) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *CatchupReq) MarshalBody(w *codec.Writer) { w.Int32(int32(m.Replica)) }

func decodeCatchupReq(r *codec.Reader) (*CatchupReq, error) {
	m := &CatchupReq{Replica: types.ReplicaID(r.Int32())}
	m.Sig = r.Blob()
	return m, r.Err()
}

// CatchupSlot is one executed slot above the checkpoint inside a
// CATCHUP-RESP: the sequence number, the view it executed in, and the
// ordered request batch.
type CatchupSlot struct {
	Seq  uint64
	View uint64
	Reqs []Request
}

// CatchupResp is the state-transfer response: the stable checkpoint
// (sequence number, agreed digest, 2f+1 signed votes), the application
// snapshot at exactly that sequence number, and the responder's executed
// suffix.
type CatchupResp struct {
	Replica  types.ReplicaID
	Seq      uint64
	Digest   types.Digest
	Snapshot []byte
	Suffix   []CatchupSlot
	Proof    []*Checkpoint // outside the signed body; each vote self-signs
	Sig      []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *CatchupResp) Tag() uint8 { return tagCatchupResp }

// MarshalTo implements codec.Message.
func (m *CatchupResp) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	w.Uvarint(uint64(len(m.Proof)))
	for _, v := range m.Proof {
		v.MarshalTo(w)
	}
}

func (m *CatchupResp) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.Uvarint(m.Seq)
	w.Bytes32(m.Digest)
	w.Blob(m.Snapshot)
	w.Uvarint(uint64(len(m.Suffix)))
	for i := range m.Suffix {
		s := &m.Suffix[i]
		w.Uvarint(s.Seq)
		w.Uvarint(s.View)
		w.Uvarint(uint64(len(s.Reqs)))
		for j := range s.Reqs {
			s.Reqs[j].MarshalTo(w)
		}
	}
}

func decodeCatchupResp(r *codec.Reader) (*CatchupResp, error) {
	m := &CatchupResp{
		Replica: types.ReplicaID(r.Int32()),
		Seq:     r.Uvarint(),
		Digest:  r.Bytes32(),
	}
	m.Snapshot = r.Blob()
	nSuffix := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nSuffix > 1<<20 {
		return nil, codec.ErrOverflow
	}
	m.Suffix = make([]CatchupSlot, 0, nSuffix)
	for i := uint64(0); i < nSuffix; i++ {
		s := CatchupSlot{Seq: r.Uvarint(), View: r.Uvarint()}
		nReqs := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nReqs == 0 || nReqs > maxBatch {
			return nil, codec.ErrOverflow
		}
		s.Reqs = make([]Request, nReqs)
		for j := range s.Reqs {
			if err := decodeRequestInto(r, &s.Reqs[j]); err != nil {
				return nil, err
			}
		}
		m.Suffix = append(m.Suffix, s)
	}
	m.Sig = r.Blob()
	nProof := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nProof > 256 {
		return nil, codec.ErrOverflow
	}
	m.Proof = make([]*Checkpoint, 0, nProof)
	for i := uint64(0); i < nProof; i++ {
		v, err := decodeCheckpoint(r)
		if err != nil {
			return nil, err
		}
		m.Proof = append(m.Proof, v)
	}
	return m, r.Err()
}

func init() {
	codec.Register(tagCatchupReq, "pbft.CatchupReq", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupReq(r) })
	codec.Register(tagCatchupResp, "pbft.CatchupResp", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupResp(r) })
}

// requestCatchup solicits a state transfer from f+1 distinct voters of a
// stable checkpoint — enough that at least one is correct — so the
// responses can cross-validate each other (see handleCatchupResp). At most
// one solicitation round is in flight at a time, and the voter window
// rotates attempt by attempt so silent or lying Byzantine voters cannot
// wedge the rejoin forever.
func (r *Replica) requestCatchup(ctx proc.Context, st *engine.StableCheckpoint) {
	if r.catchupPending {
		return
	}
	var voters []types.ReplicaID
	for _, v := range st.Votes {
		if ck, ok := v.(*Checkpoint); ok && ck.Replica != r.cfg.Self {
			voters = append(voters, ck.Replica)
		}
	}
	if len(voters) == 0 {
		return
	}
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })
	base := int(r.catchupAttempts) % len(voters)
	r.catchupAttempts++
	r.catchupPending = true
	req := &CatchupReq{Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(r.cfg.Auth, req)
	want := r.f + 1
	if want > len(voters) {
		want = len(voters)
	}
	for k := 0; k < want; k++ {
		r.send(ctx, types.ReplicaNode(voters[(base+k)%len(voters)]), req)
	}
	// Re-issue on silence with jittered exponential backoff (the shared
	// client-retry discipline, proc.Backoff) at the next voter in rotation.
	r.afterTimer(ctx, proc.Backoff(ctx, 2*r.cfg.ForwardTimeout, r.catchupRetries), func(ctx proc.Context) {
		if !r.catchupPending {
			return
		}
		r.catchupPending = false
		r.catchupRetries++
		if st := r.ckpt.Stable(0); st != nil && r.maxExec < st.Mark {
			r.requestCatchup(ctx, st)
		}
	})
}

// handleCatchupReq serves a state transfer: the latest stable checkpoint's
// proof, the snapshot captured at exactly that sequence number, and every
// retained executed slot above it.
func (r *Replica) handleCatchupReq(ctx proc.Context, m *CatchupReq) {
	if m.Replica < 0 || int(m.Replica) >= r.n || m.Replica == r.cfg.Self {
		r.stats.DroppedInvalid++
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	st := r.ckpt.Stable(0)
	if st == nil {
		return
	}
	snap, _, ok := r.states.Snapshot(st.Mark)
	if !ok {
		return // no state kept for the stable point (non-Snapshotter app)
	}
	resp := &CatchupResp{
		Replica:  r.cfg.Self,
		Seq:      st.Mark,
		Digest:   st.Digest,
		Snapshot: snap,
	}
	for _, v := range st.Votes {
		if ck, ok := v.(*Checkpoint); ok {
			resp.Proof = append(resp.Proof, ck)
		}
	}
	for seq := st.Mark + 1; seq <= r.maxExec; seq++ {
		s, ok := r.slots[seq]
		if !ok || !s.executed {
			break // suffix must stay contiguous
		}
		resp.Suffix = append(resp.Suffix, CatchupSlot{Seq: seq, View: s.view, Reqs: s.reqs})
	}
	r.cfg.Costs.ChargeSign(ctx)
	resp.Sig = engine.SignBody(r.cfg.Auth, resp)
	r.send(ctx, types.ReplicaNode(m.Replica), resp)
	r.stats.CatchupsServed++
}

// catchupAgrees reports whether two validated state transfers describe the
// same install: same checkpoint anchor and byte-identical snapshot.
func catchupAgrees(a, b *CatchupResp) bool {
	return a.Seq == b.Seq && a.Digest == b.Digest && bytes.Equal(a.Snapshot, b.Snapshot)
}

// catchupSlotsAgree reports whether two responders vouch for the same
// executed slot: same sequence number ordering the same command batch.
// The view is advisory (a replica that itself rejoined via transfer records
// the view it learned the slot in) and excluded from agreement.
func catchupSlotsAgree(a, b *CatchupSlot) bool {
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

// handleCatchupResp validates a state transfer and buffers it until f+1
// distinct responders agree: the proof must carry 2f+1 valid checkpoint
// signatures, the restored application state must digest to the agreed
// checkpoint digest, and — because the suffix above the checkpoint has no
// quorum digest of its own — only the suffix prefix every agreeing
// responder vouches for is replayed. At least one of any f+1 responders is
// correct, so nothing installs on a single replica's word.
func (r *Replica) handleCatchupResp(ctx proc.Context, m *CatchupResp) {
	if !r.catchupPending || m.Seq <= r.maxExec {
		return
	}
	if m.Replica < 0 || int(m.Replica) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	snap, ok := r.cfg.App.(types.Snapshotter)
	if !ok {
		return
	}
	r.cfg.Costs.ChargeVerify(ctx, len(m.Proof))
	votes := make([]codec.Message, len(m.Proof))
	for i, v := range m.Proof {
		votes[i] = v
	}
	okProof := engine.VerifyCheckpointProof(r.n, votes, m.Seq, m.Digest,
		func(msg codec.Message) (types.ReplicaID, uint64, types.Digest, bool) {
			ck := msg.(*Checkpoint)
			valid := ck.SigVerified() ||
				engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(ck.Replica), ck, ck.Sig) == nil
			return ck.Replica, ck.Seq, ck.Digest, valid
		})
	if !okProof {
		r.stats.DroppedInvalid++
		return
	}
	// Buffer the validated response; the buffer survives retry rounds so
	// agreement can form across voter-window rotations.
	r.catchupResps[m.Replica] = m
	var group []*CatchupResp
	for _, id := range sortedResponders(r.catchupResps) {
		if o := r.catchupResps[id]; catchupAgrees(o, m) {
			group = append(group, o)
		}
	}
	if len(group) < r.f+1 {
		return // keep soliciting; the retry timer rotates to more voters
	}
	// f+1 distinct responders agree on this transfer. Responders whose
	// buffered response disagrees are in the minority against a set that
	// provably contains a correct replica: flag and discard them.
	r.stats.CatchupMismatches += uint64(len(r.catchupResps) - len(group))
	r.catchupResps = make(map[types.ReplicaID]*CatchupResp)
	// Capture the pre-transfer state so a snapshot that fails digest
	// verification can be rolled back — a Byzantine responder must not be
	// able to corrupt a correct replica's state by pairing a valid proof
	// with bogus snapshot bytes.
	prev := snap.Snapshot()
	if err := snap.Restore(m.Snapshot); err != nil {
		r.stats.DroppedInvalid++
		return
	}
	if r.cfg.App.Digest() != m.Digest {
		// The snapshot does not match the quorum-agreed state digest: the
		// responder lied or the transfer was corrupted. Roll back and wait
		// for a transfer from another voter.
		_ = snap.Restore(prev)
		r.catchupPending = false
		r.stats.DroppedInvalid++
		return
	}
	// Adopt the checkpoint: everything at or below it is executed state.
	r.maxExec = m.Seq
	for seq := range r.slots {
		if seq <= m.Seq {
			delete(r.slots, seq)
		}
	}
	// Replay only the suffix prefix the whole agreeing group vouches for:
	// a liar inside the group (colluding on the anchor) cannot smuggle in
	// forged slots, and whatever honest tail is cut off re-arrives through
	// the ordinary protocol or the next checkpoint's transfer.
	agreed := len(m.Suffix)
	for _, o := range group {
		if len(o.Suffix) < agreed {
			agreed = len(o.Suffix)
		}
	}
	for i := 0; i < agreed; i++ {
		for _, o := range group {
			if !catchupSlotsAgree(&m.Suffix[i], &o.Suffix[i]) {
				agreed = i
				break
			}
		}
	}
	for i := 0; i < agreed; i++ {
		cs := &m.Suffix[i]
		if cs.Seq != r.maxExec+1 {
			break
		}
		if _, dup := r.slots[cs.Seq]; dup {
			delete(r.slots, cs.Seq)
		}
		s := r.slot(cs.Seq)
		s.view = cs.View
		s.havePre = true
		s.prepared = true
		s.committed = true
		s.reqs = cs.Reqs
		s.digests = make([]types.Digest, len(cs.Reqs))
		s.results = make([]types.Result, len(cs.Reqs))
		for j := range cs.Reqs {
			cmd := cs.Reqs[j].Cmd
			s.digests[j] = cmd.Digest()
			r.cfg.Costs.ChargeExecute(ctx)
			s.results[j] = r.cfg.App.Apply(cmd)
			key := cmdKey{cmd.Client, cmd.Timestamp}
			r.byCmd[key] = cs.Seq
			r.window.Seen(cmd.Client, cmd.Timestamp)
		}
		s.cmdDigest = engine.BatchDigest(s.digests)
		s.executed = true
		r.maxExec = cs.Seq
		r.stats.Executed += uint64(len(cs.Reqs))
	}
	if cs := r.ckpt.Stable(0); cs == nil || cs.Mark < m.Seq {
		// Adopt the transferred checkpoint as our stable point so stats and
		// later truncation reflect it even before we see fresh votes.
		for _, v := range m.Proof {
			r.ckpt.Record(0, v.Seq, v.Replica, v.Digest, v)
		}
	}
	r.stableCkpt = m.Seq
	r.catchupPending = false
	r.catchupRetries = 0
	r.stats.CatchupsInstalled++
	// Anything newly contiguous (buffered slots above the transfer) executes.
	r.executeReady(ctx)
	// The installed state supersedes the WAL below it.
	r.states.Adopt(m.Seq, m.Snapshot, types.Digest{})
	r.persistSnapshot()
}
