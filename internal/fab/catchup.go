package fab

import (
	"sort"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// This file ports the checkpoint-anchored state transfer of ezBFT/PBFT
// (PR 5) to FaB: a replica whose executed watermark falls behind a stable
// checkpoint — a partition victim whose missed prefix was truncated
// everywhere else — requests a transfer from the checkpoint's voters,
// restores the application snapshot captured at exactly the checkpoint
// sequence number, verifies it against the 2f+1-signed digest, and replays
// the responder's executed suffix.
//
// FaB executes sequentially, so the application state at sequence number n
// is identical at every correct replica and the quorum digest fully
// verifies the snapshot. The responder's word covers only its current view
// and the suffix; a lie in either cannot corrupt agreed state — the
// snapshot is digest-checked — it only leaves the victim behind again,
// which the next stable checkpoint repairs through another (rotated)
// responder.
// A rejoined replica whose gap sits entirely *above* the last stable
// checkpoint gets no further stability signal once traffic quiesces — the
// missed PROPOSEs are never retransmitted, so without help it would stay
// wedged a few slots short forever. STATUS anti-entropy closes that tail:
// with checkpointing enabled each replica periodically broadcasts its
// signed executed watermark, and a replica that hears a higher one pulls
// the difference through the ordinary catch-up path (the responder's
// executed suffix above the stable mark replays on top of local state —
// no snapshot install needed).
const (
	tagCatchupReq  = 57
	tagCatchupResp = 58
	tagStatus      = 59
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
// CATCHUP-RESP: the sequence number and the ordered request batch.
type CatchupSlot struct {
	Seq  uint64
	Reqs []Request
}

// CatchupResp is the state-transfer response: the stable checkpoint
// (sequence number, agreed digest, 2f+1 signed votes), the application
// snapshot at exactly that sequence number, the responder's current view,
// and its executed suffix.
type CatchupResp struct {
	Replica  types.ReplicaID
	View     uint64
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
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.Digest)
	w.Blob(m.Snapshot)
	w.Uvarint(uint64(len(m.Suffix)))
	for i := range m.Suffix {
		s := &m.Suffix[i]
		w.Uvarint(s.Seq)
		w.Uvarint(uint64(len(s.Reqs)))
		for j := range s.Reqs {
			s.Reqs[j].MarshalTo(w)
		}
	}
}

func decodeCatchupResp(r *codec.Reader) (*CatchupResp, error) {
	m := &CatchupResp{
		Replica: types.ReplicaID(r.Int32()),
		View:    r.Uvarint(),
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
		s := CatchupSlot{Seq: r.Uvarint()}
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
		v, err := decodeCkpt(r)
		if err != nil {
			return nil, err
		}
		m.Proof = append(m.Proof, v)
	}
	return m, r.Err()
}

// Status is a replica's periodic signed executed-watermark advertisement,
// ⟨STATUS, e, i⟩σi — the anti-entropy beacon that lets a rejoined replica
// discover a post-checkpoint tail gap after traffic quiesces. Broadcast
// only when checkpointing is enabled.
type Status struct {
	Replica types.ReplicaID
	MaxExec uint64
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Status) Tag() uint8 { return tagStatus }

// MarshalTo implements codec.Message.
func (m *Status) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Status) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.Uvarint(m.MaxExec)
}

func decodeStatus(r *codec.Reader) (*Status, error) {
	m := &Status{Replica: types.ReplicaID(r.Int32()), MaxExec: r.Uvarint()}
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	codec.Register(tagCatchupReq, "fab.CatchupReq", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupReq(r) })
	codec.Register(tagCatchupResp, "fab.CatchupResp", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupResp(r) })
	codec.Register(tagStatus, "fab.Status", func(r *codec.Reader) (codec.Message, error) { return decodeStatus(r) })
}

// armStatusTimer schedules the next STATUS broadcast. The period is a
// small multiple of ForwardTimeout — frequent enough that a tail gap
// closes well inside a convergence window, rare enough to be noise
// against agreement traffic.
func (r *Replica) armStatusTimer(ctx proc.Context) {
	r.afterTimer(ctx, 2*r.cfg.ForwardTimeout, func(ctx proc.Context) {
		st := &Status{Replica: r.cfg.Self, MaxExec: r.maxExec}
		r.cfg.Costs.ChargeSign(ctx)
		st.Sig = engine.SignBody(r.cfg.Auth, st)
		r.broadcastReplicas(ctx, st)
		r.armStatusTimer(ctx)
	})
}

// handleStatus pulls a state transfer when a peer advertises an executed
// watermark beyond ours. A lying watermark only costs wasted (rotated,
// backed-off) catch-up rounds: installs stay anchored to verified
// checkpoint proofs and digest-checked snapshots.
func (r *Replica) handleStatus(ctx proc.Context, m *Status) {
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
	if m.MaxExec <= r.maxExec {
		return
	}
	if st := r.ckpt.Stable(0); st != nil {
		r.requestCatchup(ctx, st)
	}
}

// requestCatchup asks one of a stable checkpoint's voters for a state
// transfer; at most one request is in flight at a time, and the target
// rotates across voters attempt by attempt so a silent or lying Byzantine
// voter cannot wedge the rejoin forever.
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
	target := voters[int(r.catchupAttempts)%len(voters)]
	r.catchupAttempts++
	r.catchupPending = true
	req := &CatchupReq{Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(r.cfg.Auth, req)
	r.send(ctx, types.ReplicaNode(target), req)
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
		View:     r.view,
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
		reqs := make([]Request, len(s.cmds))
		for i, cmd := range s.cmds {
			reqs[i] = Request{Cmd: cmd}
		}
		resp.Suffix = append(resp.Suffix, CatchupSlot{Seq: seq, Reqs: reqs})
	}
	r.cfg.Costs.ChargeSign(ctx)
	resp.Sig = engine.SignBody(r.cfg.Auth, resp)
	r.send(ctx, types.ReplicaNode(m.Replica), resp)
	r.stats.CatchupsServed++
}

// handleCatchupResp validates and installs a state transfer: the proof must
// carry 2f+1 valid checkpoint signatures, and the restored application
// state must digest to the agreed checkpoint digest — the snapshot is fully
// verified, not trusted. A response whose stable mark is at or below our
// own watermark can still help: its executed suffix extending beyond us
// replays on top of local state (the post-checkpoint tail a STATUS beacon
// revealed), with no snapshot install.
func (r *Replica) handleCatchupResp(ctx proc.Context, m *CatchupResp) {
	if !r.catchupPending {
		return
	}
	if m.Seq+uint64(len(m.Suffix)) <= r.maxExec {
		// Nothing beyond our watermark — caught up by other means.
		r.catchupPending = false
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	wholesale := m.Seq > r.maxExec
	snap, isSnap := r.cfg.App.(types.Snapshotter)
	if wholesale && !isSnap {
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
	if wholesale {
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
		// Advancing the truncation point keeps contiguous() scanning from the
		// transferred watermark instead of the missing prefix.
		r.maxExec = m.Seq
		if m.Seq > r.truncated {
			r.truncated = m.Seq
		}
		if m.Seq > r.ckptEmitted {
			r.ckptEmitted = m.Seq
		}
		for seq := range r.slots {
			if seq <= m.Seq {
				delete(r.slots, seq)
			}
		}
		for seq := range r.pending {
			if seq <= m.Seq {
				delete(r.pending, seq)
			}
		}
	}
	// Adopt the responder's view: a victim that missed leader changes while
	// partitioned would otherwise drop every PROPOSE of the new view. A
	// lying view can only delay the victim (it keeps catching up at each
	// stable checkpoint through rotated responders), never corrupt state.
	// Mirrors applyNewLeader: unexecuted slots from the old view reset.
	if m.View > r.view {
		r.view = m.View
		r.batcher.Drop()
		for seq, s := range r.slots {
			if !s.executed {
				delete(r.slots, seq)
				delete(r.pending, seq)
			}
		}
		for key, id := range r.forwarded {
			delete(r.forwarded, key)
			delete(r.timerAct, id)
		}
	}
	// Replay the responder's executed suffix in order, rebuilding the reply
	// cache so client retransmissions are answered from the cache. In the
	// tail case the suffix overlaps our executed prefix; skip the overlap
	// and replay only what extends it.
	for i := range m.Suffix {
		cs := &m.Suffix[i]
		if cs.Seq <= r.maxExec {
			continue // already executed locally
		}
		if cs.Seq != r.maxExec+1 {
			break
		}
		s := &slotState{
			seq:     cs.Seq,
			cmds:    make([]types.Command, len(cs.Reqs)),
			digests: make([]types.Digest, len(cs.Reqs)),
			accepts: make(map[types.ReplicaID]bool),
			havePro: true, learned: true, executed: true,
			results: make([]types.Result, len(cs.Reqs)),
		}
		for j := range cs.Reqs {
			cmd := cs.Reqs[j].Cmd
			s.cmds[j] = cmd
			s.digests[j] = cmd.Digest()
			r.cfg.Costs.ChargeExecute(ctx)
			s.results[j] = r.cfg.App.Apply(cmd)
			key := cmdKey{cmd.Client, cmd.Timestamp}
			r.byCmd[key] = cs.Seq
			r.window.Seen(cmd.Client, cmd.Timestamp)
			reply := &Reply{
				View:      r.view,
				Timestamp: cmd.Timestamp,
				Client:    cmd.Client,
				Replica:   r.cfg.Self,
				Result:    s.results[j],
			}
			r.cfg.Costs.ChargeSign(ctx)
			reply.Sig = engine.SignBody(r.cfg.Auth, reply)
			r.replyCache[key] = reply
			r.stats.Executed++
		}
		s.cmdDigest = engine.BatchDigest(s.digests)
		r.slots[cs.Seq] = s
		r.maxExec = cs.Seq
		r.stats.Learned++
	}
	if cs := r.ckpt.Stable(0); cs == nil || cs.Mark < m.Seq {
		// Adopt the transferred checkpoint as our stable point so stats and
		// later truncation reflect it even before we see fresh votes.
		for _, v := range m.Proof {
			r.ckpt.Record(0, v.Seq, v.Replica, v.Digest, v)
		}
	}
	if leaderOf(r.view, r.n) == r.cfg.Self && r.maxExec+1 > r.nextSeq {
		r.nextSeq = r.maxExec + 1
	}
	r.catchupPending = false
	r.catchupRetries = 0
	r.stats.CatchupsInstalled++
	if wholesale {
		// Retain the digest-verified snapshot so this replica can serve
		// transfers too (a tail response's snapshot bytes were never
		// verified against the quorum digest — do not serve them).
		r.states.Adopt(m.Seq, m.Snapshot, types.Digest{})
	}
	// Anything newly contiguous (buffered proposals above the transfer)
	// accepts and executes through the regular drain.
	for {
		next, ok := r.pending[r.contiguous()+1]
		if !ok {
			break
		}
		delete(r.pending, next.Seq)
		r.acceptPropose(ctx, next, nil)
	}
	if s, ok := r.slots[r.maxExec+1]; ok {
		r.checkLearned(ctx, s)
	}
	r.maybeEmitCheckpoint(ctx)
}
