package zyzzyva

import (
	"sort"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// This file ports the checkpoint-anchored state transfer of ezBFT/PBFT
// (PR 5) to Zyzzyva: a replica whose executed watermark falls behind a
// stable checkpoint — a partition victim whose missed prefix was truncated
// everywhere else — requests a transfer from the checkpoint's voters,
// restores the application snapshot captured at exactly the checkpoint
// sequence number, verifies it against the 2f+1-signed digest, and replays
// the responder's executed suffix.
//
// Zyzzyva executes speculatively but sequentially, so like PBFT the
// application state at sequence number n is identical at every correct
// replica and the quorum digest fully verifies the snapshot. Two pieces of
// responder word remain: the history-chain hash at the checkpoint (needed
// to validate subsequent ORDERREQs) and the suffix. A lie in either cannot
// corrupt agreed state — the snapshot is digest-checked — it only leaves
// the victim unable to accept further assignments, which the next stable
// checkpoint repairs through another (rotated) responder.
const (
	tagCatchupReq = 49
	// Zyzzyva's own block (40-49) is full; the response extends into the
	// shared expansion block (60-69, see messages.go).
	tagCatchupResp = 65
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
// ordered request batch. The history-chain hash is recomputed by the
// installer, so it is not carried.
type CatchupSlot struct {
	Seq  uint64
	View uint64
	Reqs []Request
}

// CatchupResp is the state-transfer response: the stable checkpoint
// (sequence number, agreed digest, 2f+1 signed votes), the application
// snapshot and history-chain hash at exactly that sequence number, the
// responder's current view, and its executed suffix.
type CatchupResp struct {
	Replica  types.ReplicaID
	View     uint64
	Seq      uint64
	Digest   types.Digest
	HistHash types.Digest
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
	w.Bytes32(m.HistHash)
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
		View:    r.Uvarint(),
		Seq:     r.Uvarint(),
		Digest:  r.Bytes32(),
	}
	m.HistHash = r.Bytes32()
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
	codec.Register(tagCatchupReq, "zyzzyva.CatchupReq", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupReq(r) })
	codec.Register(tagCatchupResp, "zyzzyva.CatchupResp", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupResp(r) })
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
		if st := r.ckpt.Stable(0); st != nil && r.maxSeq < st.Mark {
			r.requestCatchup(ctx, st)
		}
	})
}

// handleCatchupReq serves a state transfer: the latest stable checkpoint's
// proof, the snapshot and history hash captured at exactly that sequence
// number, and every retained executed slot above it.
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
	snap, histHash, ok := r.states.Snapshot(st.Mark)
	if !ok {
		return // no state kept for the stable point (non-Snapshotter app)
	}
	resp := &CatchupResp{
		Replica:  r.cfg.Self,
		View:     r.view,
		Seq:      st.Mark,
		Digest:   st.Digest,
		HistHash: histHash,
		Snapshot: snap,
	}
	for _, v := range st.Votes {
		if ck, ok := v.(*Checkpoint); ok {
			resp.Proof = append(resp.Proof, ck)
		}
	}
	for seq := st.Mark + 1; seq <= r.maxSeq; seq++ {
		e, ok := r.log[seq]
		if !ok || !e.executed {
			break // suffix must stay contiguous
		}
		reqs := make([]Request, len(e.cmds))
		for i, cmd := range e.cmds {
			reqs[i] = Request{Cmd: cmd}
		}
		resp.Suffix = append(resp.Suffix, CatchupSlot{Seq: seq, View: r.view, Reqs: reqs})
	}
	r.cfg.Costs.ChargeSign(ctx)
	resp.Sig = engine.SignBody(r.cfg.Auth, resp)
	r.send(ctx, types.ReplicaNode(m.Replica), resp)
	r.stats.CatchupsServed++
}

// handleCatchupResp validates and installs a state transfer: the proof must
// carry 2f+1 valid checkpoint signatures, and the restored application
// state must digest to the agreed checkpoint digest — the snapshot is fully
// verified, not trusted.
func (r *Replica) handleCatchupResp(ctx proc.Context, m *CatchupResp) {
	if !r.catchupPending || m.Seq <= r.maxSeq {
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
	r.maxSeq = m.Seq
	r.histHash = m.HistHash
	for seq := range r.log {
		if seq <= m.Seq {
			delete(r.log, seq)
		}
	}
	for seq := range r.pending {
		if seq <= m.Seq {
			delete(r.pending, seq)
		}
	}
	// Adopt the responder's view: a victim that missed view changes while
	// partitioned would otherwise drop every ORDERREQ of the new view. A
	// lying view can only delay the victim (it keeps catching up at each
	// stable checkpoint through rotated responders), never corrupt state.
	if m.View > r.view {
		r.view = m.View
		r.inVC = false
		r.batcher.Drop()
		for key, id := range r.forwarded {
			delete(r.forwarded, key)
			delete(r.timerAct, id)
		}
	}
	// Replay the responder's executed suffix in order, re-deriving the
	// history chain from the verified checkpoint hash.
	for i := range m.Suffix {
		cs := &m.Suffix[i]
		if cs.Seq != r.maxSeq+1 {
			break
		}
		digests := make([]types.Digest, len(cs.Reqs))
		for j := range cs.Reqs {
			digests[j] = cs.Reqs[j].Cmd.Digest()
		}
		batchDigest := engine.BatchDigest(digests)
		hh := chainHash(r.histHash, batchDigest)
		e := &logEntry{
			seq:       cs.Seq,
			cmds:      make([]types.Command, len(cs.Reqs)),
			digests:   digests,
			cmdDigest: batchDigest,
			histHash:  hh,
			results:   make([]types.Result, len(cs.Reqs)),
			executed:  true,
		}
		for j := range cs.Reqs {
			cmd := cs.Reqs[j].Cmd
			r.cfg.Costs.ChargeExecute(ctx)
			e.cmds[j] = cmd
			e.results[j] = r.cfg.App.Apply(cmd)
			key := cmdKey{cmd.Client, cmd.Timestamp}
			r.byCmd[key] = cs.Seq
			r.window.Seen(cmd.Client, cmd.Timestamp)
			r.stats.SpecExecuted++
		}
		r.log[cs.Seq] = e
		r.maxSeq = cs.Seq
		r.histHash = hh
	}
	if cs := r.ckpt.Stable(0); cs == nil || cs.Mark < m.Seq {
		// Adopt the transferred checkpoint as our stable point so stats and
		// later truncation reflect it even before we see fresh votes.
		for _, v := range m.Proof {
			r.ckpt.Record(0, v.Seq, v.Replica, v.Digest, v)
		}
	}
	if primaryOf(r.view, r.n) == r.cfg.Self {
		r.nextSeq = r.maxSeq + 1
	}
	r.catchupPending = false
	r.catchupRetries = 0
	r.stats.CatchupsInstalled++
	// Retain the verified snapshot so this replica can serve transfers too.
	r.states.Adopt(m.Seq, m.Snapshot, m.HistHash)
	// Anything newly contiguous (buffered assignments above the transfer)
	// executes through the regular drain.
	for {
		next, ok := r.pending[r.maxSeq+1]
		if !ok {
			break
		}
		delete(r.pending, r.maxSeq+1)
		r.acceptOrderReq(ctx, next, nil)
	}
	r.maybeEmitCheckpoint(ctx)
}
