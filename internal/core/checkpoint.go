package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// This file is ezBFT's half of its log lifecycle — checkpointing, garbage
// collection and state-transfer catch-up (the §V garbage-collection sketch,
// grown into a full subsystem) — on the engine's Lifecycle, which all four
// protocols share.
//
// # Checkpoints and truncation
//
// Each instance space is checkpointed independently. A replica tracks, per
// space, the contiguously finally-executed prefix (space.execMark) and a
// chained digest over the committed batch digests of that prefix
// (space.execDigest). Every time the prefix crosses a multiple of
// CheckpointInterval, the replica broadcasts a signed per-space
// ⟨CHECKPOINT, s, w, d⟩σR message: "I have finally executed every slot of
// space s up to w, and the committed content of that prefix digests to d".
// Because the committed command (batch) of every slot is agreed, correct
// replicas that reach the same mark compute the same digest, so votes match.
//
// 2f+1 matching votes establish a *stable* checkpoint (the space's low-water
// mark): at least f+1 correct replicas have executed the prefix, so its
// effects can never be lost and the entries backing it are dead weight. The
// replica then truncates — frees cmdLog entries at or below the mark (minus
// LogRetention) that it has itself executed, prunes the dependency index,
// drops parked evidence-slimmed commit decisions for freed instances, and
// bounds the per-request bookkeeping (reply cache, exactly-once memo,
// instance map) to a recent per-client window. Execution treats a
// dependency below a space's truncation point as executed (it is), and the
// owner-change protocol clamps recovery to the mark: slots at or below a
// stable checkpoint are never refilled with no-ops.
//
// # Why truncating below a 2f+1 stable checkpoint is safe
//
// An entry is freed only when (a) 2f+1 replicas signed that they finally
// executed it — so every functioning quorum intersects a correct replica
// whose state already reflects it, and no future commit or owner-change
// decision can contradict it — and (b) this replica itself executed it, so
// its own execution order is already fixed. Dependency edges into the freed
// prefix carry no information for this replica (it ordered everything after
// them), and other replicas derive their own edges from their own logs, so
// the union of dependency sets across any quorum is unaffected. A replica
// that still needs a freed entry is, by construction, behind the stable
// mark — the state-transfer path below is its only (and sufficient) way
// back.
//
// # Catch-up
//
// A replica that observes a stable checkpoint it cannot reach from its own
// log can no longer recover the gap from retransmissions — peers may have
// truncated it. It fetches the state in the Lifecycle's transfer rounds:
// the votes, the proof check, the rotating window of f+1 voters, the
// back-off retry and the f+1 agreement buffer are the engine's, and logHost
// below supplies ezBFT's payloads and trust rule. A CATCHUP-RESP carries
// (1) the checkpoint proof — the 2f+1 signed CHECKPOINT votes per space —
// (2) an application snapshot of the responder's final state
// (types.Snapshotter), (3) its per-client executed-timestamp table for
// exactly-once semantics across the transfer, and (4) the suffix: every
// retained log entry above its truncation point, with status and SPECORDER
// proofs.
//
// Trust model: the proof is checked against 2f+1 signatures and suffix
// entries against their embedded leader-signed SPECORDERs, but the snapshot
// bytes are vouched for only by the responders: ezBFT replicas execute
// non-interfering commands in different orders, so no common sequence of
// application states exists for a quorum to have co-signed (unlike the
// sequenced baselines, whose snapshot must digest to the stable
// checkpoint's digest). A wholesale transfer therefore installs only once
// f+1 distinct responders agree on all of it (catchupAgrees): any f+1 group
// holds a correct replica, so a lying responder — even one colluding with a
// checkpoint-forging voter — can neither corrupt the rejoining replica nor
// wedge it. A tail, served when the requester's executed prefix covers the
// responder's truncation point, carries per-entry evidence (proof coverage
// or a verified SPECORDER signature) and merges incrementally from a single
// responder.
const (
	tagCheckpoint  = 26
	tagCatchupReq  = 27
	tagCatchupResp = 28
	tagSOFetch     = 29
)

// CheckpointMsg is a replica's signed per-space executed-watermark vote,
// ⟨CHECKPOINT, s, w, d⟩σR.
type CheckpointMsg struct {
	Space   types.ReplicaID // the instance space being checkpointed
	Slot    uint64          // executed watermark (a multiple of the interval)
	Digest  types.Digest    // chained digest of the space's committed prefix 1..Slot
	Replica types.ReplicaID // voter
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *CheckpointMsg) Tag() uint8 { return tagCheckpoint }

// MarshalTo implements codec.Message.
func (m *CheckpointMsg) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

// Signer and Ballot implement engine.CheckpointVote: the space is the
// instance space.
func (m *CheckpointMsg) Signer() (types.ReplicaID, []byte) { return m.Replica, m.Sig }
func (m *CheckpointMsg) Ballot() (engine.CheckpointSpace, uint64, types.Digest) {
	return engine.CheckpointSpace(m.Space), m.Slot, m.Digest
}

func (m *CheckpointMsg) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Space))
	w.Uvarint(m.Slot)
	w.Bytes32(m.Digest)
	w.Int32(int32(m.Replica))
}

func decodeCheckpoint(r *codec.Reader) (*CheckpointMsg, error) {
	m := &CheckpointMsg{
		Space:   types.ReplicaID(r.Int32()),
		Slot:    r.Uvarint(),
		Digest:  r.Bytes32(),
		Replica: types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// SpaceMark is the requester's position in one instance space, attached to
// a CATCHUP-REQ so the responder can serve a tail instead of a wholesale
// transfer.
type SpaceMark struct {
	ExecMark uint64 // requester's contiguously executed prefix
	MaxSlot  uint64 // requester's log high-water mark
}

// CatchupReq asks a peer for a state transfer, ⟨CATCHUP-REQ, R, marks⟩σR.
// Marks (one per space, in space order) advertises how far the requester
// already got: when its executed prefix covers everything the responder has
// truncated, the responder answers with only the missing tail — no
// application snapshot, no executed-timestamp table — and the requester
// re-executes the tail itself. Empty marks request the wholesale transfer.
type CatchupReq struct {
	Replica types.ReplicaID // requester
	Marks   []SpaceMark     // requester's per-space positions (len N or empty)
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

// Signer implements engine.Signed.
func (m *CatchupReq) Signer() (types.ReplicaID, []byte) { return m.Replica, m.Sig }

func (m *CatchupReq) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.Uvarint(uint64(len(m.Marks)))
	for _, sm := range m.Marks {
		w.Uvarint(sm.ExecMark)
		w.Uvarint(sm.MaxSlot)
	}
}

func decodeCatchupReq(r *codec.Reader) (*CatchupReq, error) {
	m := &CatchupReq{Replica: types.ReplicaID(r.Int32())}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > 1024 {
		return nil, codec.ErrOverflow
	}
	m.Marks = make([]SpaceMark, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Marks = append(m.Marks, SpaceMark{ExecMark: r.Uvarint(), MaxSlot: r.Uvarint()})
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// SpaceCkpt is one instance space's lifecycle state inside a CATCHUP-RESP.
type SpaceCkpt struct {
	Space        types.ReplicaID
	Owner        types.OwnerNumber
	Frozen       bool
	LowWater     uint64       // stable mark (0 = none)
	StableDigest types.Digest // agreed digest at LowWater
	Truncated    uint64       // slots ≤ this exist only inside the snapshot
	MaxSlot      uint64
	ExecMark     uint64
	ExecDigest   types.Digest
	LogHash      types.Digest
}

func (s *SpaceCkpt) marshalTo(w *codec.Writer) {
	w.Int32(int32(s.Space))
	w.Uvarint(uint64(s.Owner))
	w.Bool(s.Frozen)
	w.Uvarint(s.LowWater)
	w.Bytes32(s.StableDigest)
	w.Uvarint(s.Truncated)
	w.Uvarint(s.MaxSlot)
	w.Uvarint(s.ExecMark)
	w.Bytes32(s.ExecDigest)
	w.Bytes32(s.LogHash)
}

func decodeSpaceCkpt(r *codec.Reader) SpaceCkpt {
	return SpaceCkpt{
		Space:        types.ReplicaID(r.Int32()),
		Owner:        types.OwnerNumber(r.Uvarint()),
		Frozen:       r.Bool(),
		LowWater:     r.Uvarint(),
		StableDigest: r.Bytes32(),
		Truncated:    r.Uvarint(),
		MaxSlot:      r.Uvarint(),
		ExecMark:     r.Uvarint(),
		ExecDigest:   r.Bytes32(),
		LogHash:      r.Bytes32(),
	}
}

// ClientMark records one client's highest finally-executed timestamp at the
// responder, for exactly-once semantics across a state transfer.
type ClientMark struct {
	Client types.ClientID
	Ts     uint64
}

// CatchupResp is the state-transfer response, ⟨CATCHUP-RESP⟩σR: per-space
// lifecycle state, the checkpoint proof, the application snapshot, the
// per-client executed-timestamp table, and the retained log suffix. A
// *tail* response (Tail set, served when the requester's own marks showed
// it close enough) carries only the lifecycle state, proof, and the suffix
// above the requester's executed prefix: the requester keeps its state and
// re-executes the tail itself instead of installing wholesale.
type CatchupResp struct {
	Replica  types.ReplicaID
	Tail     bool
	Spaces   []SpaceCkpt
	Clients  []ClientMark
	Snapshot []byte
	Suffix   []HistEntry
	Proof    []*CheckpointMsg // outside the signed body; each vote self-signs
	Sig      []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *CatchupResp) Tag() uint8 { return tagCatchupResp }

// MarshalTo implements codec.Message.
func (m *CatchupResp) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	m.marshalProof(w)
}

// Signer implements engine.Signed.
func (m *CatchupResp) Signer() (types.ReplicaID, []byte) { return m.Replica, m.Sig }

func (m *CatchupResp) MarshalBody(w *codec.Writer) {
	m.marshalHead(w)
	w.Blob(m.Snapshot)
	w.Uvarint(uint64(len(m.Suffix)))
	for i := range m.Suffix {
		m.Suffix[i].marshalTo(w)
	}
}

// marshalHead and marshalProof write what precedes the snapshot and what
// follows the suffix, which persistSnapshot streams in between.
func (m *CatchupResp) marshalHead(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.Bool(m.Tail)
	w.Uvarint(uint64(len(m.Spaces)))
	for i := range m.Spaces {
		m.Spaces[i].marshalTo(w)
	}
	w.Uvarint(uint64(len(m.Clients)))
	for _, cm := range m.Clients {
		w.Int32(int32(cm.Client))
		w.Uvarint(cm.Ts)
	}
}

func (m *CatchupResp) marshalProof(w *codec.Writer) {
	w.Blob(m.Sig)
	w.Uvarint(uint64(len(m.Proof)))
	for _, v := range m.Proof {
		v.MarshalTo(w)
	}
}

func decodeCatchupResp(r *codec.Reader) (*CatchupResp, error) {
	m := &CatchupResp{Replica: types.ReplicaID(r.Int32()), Tail: r.Bool()}
	nSpaces := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nSpaces > 1024 {
		return nil, codec.ErrOverflow
	}
	m.Spaces = make([]SpaceCkpt, 0, nSpaces)
	for i := uint64(0); i < nSpaces; i++ {
		m.Spaces = append(m.Spaces, decodeSpaceCkpt(r))
	}
	nClients := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nClients > 1<<20 {
		return nil, codec.ErrOverflow
	}
	m.Clients = make([]ClientMark, 0, nClients)
	for i := uint64(0); i < nClients; i++ {
		m.Clients = append(m.Clients, ClientMark{
			Client: types.ClientID(r.Int32()),
			Ts:     r.Uvarint(),
		})
	}
	m.Snapshot = r.Blob()
	nSuffix := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nSuffix > 1<<20 {
		return nil, codec.ErrOverflow
	}
	m.Suffix = make([]HistEntry, 0, nSuffix)
	for i := uint64(0); i < nSuffix; i++ {
		h, err := decodeHistEntry(r)
		if err != nil {
			return nil, err
		}
		m.Suffix = append(m.Suffix, h)
	}
	m.Sig = r.Blob()
	nProof := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nProof > 4096 {
		return nil, codec.ErrOverflow
	}
	m.Proof = make([]*CheckpointMsg, 0, nProof)
	for i := uint64(0); i < nProof; i++ {
		v, err := decodeCheckpoint(r)
		if err != nil {
			return nil, err
		}
		m.Proof = append(m.Proof, v)
	}
	return m, r.Err()
}

// SOFetch is a client's fetch-on-conflict request, ⟨SOFETCH, c, I, d⟩σc:
// hand me the full SPECORDER at instance I whose batch digest is d. It
// restores universal proof-of-misbehaviour construction under SPECREPLY
// evidence slimming — a client holding only signed SORef digests for two
// conflicting proposals fetches the full SPECORDERs behind them and builds
// the POM any replica accepts.
type SOFetch struct {
	Client types.ClientID
	Inst   types.InstanceID
	Ref    types.Digest // batch digest of the wanted proposal
	Sig    []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *SOFetch) Tag() uint8 { return tagSOFetch }

// MarshalTo implements codec.Message.
func (m *SOFetch) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *SOFetch) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Client))
	w.Instance(m.Inst)
	w.Bytes32(m.Ref)
}

func decodeSOFetch(r *codec.Reader) (*SOFetch, error) {
	m := &SOFetch{
		Client: types.ClientID(r.Int32()),
		Inst:   r.Instance(),
		Ref:    r.Bytes32(),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	codec.Register(tagCheckpoint, "ezbft.Checkpoint", func(r *codec.Reader) (codec.Message, error) { return decodeCheckpoint(r) })
	codec.Register(tagCatchupReq, "ezbft.CatchupReq", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupReq(r) })
	codec.Register(tagCatchupResp, "ezbft.CatchupResp", func(r *codec.Reader) (codec.Message, error) { return decodeCatchupResp(r) })
	codec.Register(tagSOFetch, "ezbft.SOFetch", func(r *codec.Reader) (codec.Message, error) { return decodeSOFetch(r) })
}

// --- execution watermark and checkpoint emission ---

// advanceExecMark advances a space's contiguously executed prefix after one
// of its entries finally executed, chaining the execution digest slot by
// slot and voting for every interval boundary crossed.
func (r *Replica) advanceExecMark(ctx proc.Context, spaceID types.ReplicaID) {
	sp := r.log.space(spaceID)
	for {
		e := sp.entries[sp.execMark+1]
		if e == nil || e.status < StatusExecuted {
			return
		}
		sp.execMark++
		sp.execDigest = chainExecDigest(sp.execDigest, sp.execMark, e.cmdDigest)
		if r.life.Boundary(sp.execMark) {
			m := &CheckpointMsg{Space: spaceID, Slot: sp.execMark, Digest: sp.execDigest, Replica: r.cfg.Self}
			r.cfg.Costs.ChargeSign(ctx)
			m.Sig = engine.SignBody(r.cfg.Auth, m)
			r.life.Emit(ctx, m)
		}
	}
}

// chainExecDigest extends a space's execution digest with one slot's
// committed batch digest: the hash of prev ‖ slot (8 bytes, big-endian) ‖ d,
// hashed in one call over a fixed array, which allocates nothing.
func chainExecDigest(prev types.Digest, slot uint64, d types.Digest) types.Digest {
	var buf [32 + 8 + 32]byte
	copy(buf[:32], prev[:])
	binary.BigEndian.PutUint64(buf[32:40], slot)
	copy(buf[40:], d[:])
	return sha256.Sum256(buf[:])
}

// holeThrough scans the slots this replica has neither executed nor truncated,
// up to mark: missing reports one with no entry, uncommitted one whose entry
// has not committed.
func (sp *space) holeThrough(mark uint64) (missing, uncommitted bool) {
	for slot := max(sp.execMark, sp.truncated) + 1; slot <= mark; slot++ {
		switch e := sp.entries[slot]; {
		case e == nil:
			return true, uncommitted
		case e.status < StatusCommitted:
			uncommitted = true
		}
	}
	return false, uncommitted
}

// logHost is ezBFT's half of its engine.Lifecycle: the reaction to a
// stable checkpoint, and the payloads and trust rule of its transfer.
type logHost struct{ *Replica }

// lifecycle is ezBFT's Lifecycle over its vote and its transfer pair.
type lifecycle = engine.Lifecycle[*CheckpointMsg, *CatchupReq, *CatchupResp]

type stable = engine.StableCheckpoint[*CheckpointMsg]

// Stabilized implements engine.LogHost: a newly stable checkpoint advances
// the space's low-water mark, truncates, and cuts the store snapshot. The
// replica must fetch the state when it cannot reach the mark by itself.
func (r logHost) Stabilized(ctx proc.Context, st *stable) bool {
	spaceID := types.ReplicaID(st.Space)
	sp := r.log.space(spaceID)
	sp.lowWater = max(sp.lowWater, st.Mark)
	r.truncateSpace(spaceID, sp)
	// Durability point: a newly stable checkpoint cuts the store snapshot,
	// letting the store discard the WAL prefix it subsumes (see durable.go).
	r.persistSnapshot()
	// A replica whose log ends below the stable mark, or whose executed
	// prefix trails it by two full intervals, has holes it can no longer
	// fill from retransmissions (peers may have truncated them; SPECORDERs
	// are not re-broadcast): state transfer is the only way back. A commit
	// certificate can install entries at high slots over holes, so maxSlot
	// alone is not evidence of an intact prefix.
	if sp.maxSlot < st.Mark || sp.execMark+2*r.cfg.CheckpointInterval <= st.Mark {
		return true
	}
	// The lag slack above tolerates in-flight execution, but an outright
	// missing slot below the stable mark is a permanent hole: f+1 replicas
	// executed that prefix and moved on, and its SPECORDER will never be
	// sent again.
	missing, uncommitted := sp.holeThrough(st.Mark)
	if !missing && uncommitted && !r.Recovering() {
		// So is a slot whose entry is here and whose COMMIT is not: 2f+1
		// replicas executed it, its client is done, and nobody sends that
		// COMMIT again. One merely in flight would buy a needless transfer,
		// so look again after the transfer's retry delay and ask only if a
		// slot is still uncommitted then.
		r.AfterTimer(ctx, 2*r.cfg.ResendTimeout, func(ctx proc.Context) {
			if missing, uncommitted := r.log.space(spaceID).holeThrough(st.Mark); missing || uncommitted {
				r.life.Request(ctx, st)
			}
		})
	}
	return missing
}

// Behind implements engine.LogHost: the space's executed prefix trails st.
func (r logHost) Behind(st *stable) bool {
	return r.log.space(types.ReplicaID(st.Space)).execMark < st.Mark
}

// truncateSpace frees log entries the stable low-water mark has made dead
// weight: slots at or below mark−LogRetention that this replica has itself
// finally executed. Freed entries take their dependency-index references
// and parked commit decisions with them, hand their per-request
// bookkeeping to the client window to release, and go, zeroed, on the
// replica's free list.
func (r *Replica) truncateSpace(spaceID types.ReplicaID, sp *space) {
	limit := sp.lowWater
	if r.cfg.LogRetention >= limit {
		return
	}
	limit -= r.cfg.LogRetention
	limit = min(limit, sp.execMark)
	if limit <= sp.truncated {
		return
	}
	for slot := sp.truncated + 1; slot <= limit; slot++ {
		e := sp.entries[slot]
		if e == nil {
			continue
		}
		delete(sp.entries, slot)
		// Per-request bookkeeping outlives the entry by the client's window
		// (see releaseRequest); the window releases it now or queues it.
		for i := 0; i < e.nCmds(); i++ {
			if cmd := e.cmdAt(i); !cmd.IsNoop() {
				r.window.Truncated(cmd.Client, cmd.Timestamp)
			}
		}
		delete(r.deferredCommits, e.inst)
		r.stats.TruncatedEntries++
		*e = entry{}
		r.freeEntries = append(r.freeEntries, e)
	}
	r.deps.prune(spaceID, limit)
	sp.truncated = limit
}

// releaseRequest drops the per-request bookkeeping of one client request —
// instance mapping, cached SPECREPLY (which pins its SPECORDER and request),
// exactly-once memo. The window (engine.RequestWindow) calls it once the
// request's entry has been truncated and the request is ReplyRetention
// timestamps behind its client's highest, whichever happens last; until
// then retransmissions find the cached reply and duplicate instances find
// the memo. Afterwards an executed request's timestamp stays in settled —
// a range per client, not a record per request — so a duplicate instance
// arriving at any later time (a Byzantine leader can embed an old signed
// request in a fresh SPECORDER, which acceptSpecOrder has no way to refuse
// consistently across replicas whose windows differ) is still skipped at
// final execution, by every replica alike. A request ordered in a second
// instance that is still in the log (a re-proposal after an owner change)
// is left alone: that instance's own truncation reports it again.
func (r *Replica) releaseRequest(client types.ClientID, ts uint64) {
	key := cmdKey{client, ts}
	if inst, ok := r.instByCmd[key]; ok {
		if r.log.get(inst) != nil {
			return
		}
		delete(r.instByCmd, key)
	}
	delete(r.replyCache, key)
	if _, done := r.executed[key]; done {
		delete(r.executed, key)
		set := r.settled[client]
		set.add(ts)
		r.settled[client] = set
	}
}

// RequestStateCount returns the size of the largest per-request table
// (instance map, reply cache, exactly-once memo): the bounded-memory
// observable beside LogEntryCount.
func (r *Replica) RequestStateCount() int {
	return max(len(r.instByCmd), len(r.replyCache), len(r.executed))
}

// --- catch-up ---

// Solicit implements engine.LogHost. The request advertises the replica's
// per-space positions, so a responder serves only the tail when the
// replica's executed prefix already covers its truncation point.
func (r logHost) Solicit(ctx proc.Context, _ *stable) *CatchupReq {
	req := &CatchupReq{Replica: r.cfg.Self, Marks: make([]SpaceMark, r.n)}
	for i := range req.Marks {
		sp := r.log.space(types.ReplicaID(i))
		req.Marks[i] = SpaceMark{ExecMark: sp.execMark, MaxSlot: sp.maxSlot}
	}
	r.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(r.cfg.Auth, req)
	return req
}

// Serve implements engine.LogHost: a state transfer from this replica's
// live state — checkpoint proofs, an application snapshot, the
// executed-timestamp table, and every retained log entry.
func (r logHost) Serve(ctx proc.Context, m *CatchupReq) (*CatchupResp, bool) {
	snap, ok := types.Application(r.cfg.App).(types.Snapshotter)
	if !ok || !r.life.Enabled() {
		return nil, false // no state transfer without a snapshotting application
	}
	// Serve a tail when the requester advertised its positions and its
	// executed prefix covers everything we have truncated in every space:
	// our retained entries alone then close its gap, and it keeps its own
	// application state instead of installing ours wholesale.
	marks := m.Marks
	if len(marks) != r.n {
		marks = nil
	} else {
		for i := 0; i < r.n; i++ {
			if marks[i].ExecMark < r.log.space(types.ReplicaID(i)).truncated {
				marks = nil // its gap dips below our suffix: wholesale transfer
				break
			}
		}
	}
	resp := r.buildTransferState(snap, marks)
	r.cfg.Costs.ChargeSign(ctx)
	resp.Sig = engine.SignBody(r.cfg.Auth, resp)
	return resp, true
}

// buildTransferState assembles this replica's transferable state. With
// marks == nil it is the wholesale CATCHUP-RESP payload (what
// persistSnapshot streams to the store in the same layout): per-space
// lifecycle state and proofs, the application snapshot, the
// executed-timestamp table, and every retained entry. With the requester's
// marks it is a tail response: no snapshot, no timestamp table, and only
// the entries above the requester's executed prefix.
func (r *Replica) buildTransferState(snap types.Snapshotter, marks []SpaceMark) *CatchupResp {
	resp := r.transferHead(marks)
	if marks == nil {
		resp.Snapshot = snap.Snapshot()
	}
	for i := 0; i < r.n; i++ {
		floor := resp.Spaces[i].Truncated
		if marks != nil {
			floor = max(floor, marks[i].ExecMark) // a tail: above the requester's executed prefix
		}
		for _, slot := range r.retained(i, floor) {
			resp.Suffix = append(resp.Suffix, r.log.space(types.ReplicaID(i)).entries[slot].report())
		}
	}
	return resp
}

// transferHead is a transfer without its snapshot and suffix: per-space
// lifecycle state, the stable marks' proofs and, wholesale (marks == nil),
// the executed-timestamp table in client order.
func (r *Replica) transferHead(marks []SpaceMark) *CatchupResp {
	resp := &CatchupResp{Replica: r.cfg.Self, Tail: marks != nil}
	for i := 0; i < r.n; i++ {
		sp := r.log.space(types.ReplicaID(i))
		sc := SpaceCkpt{Space: types.ReplicaID(i), Owner: r.owners[i], Frozen: sp.frozen, LowWater: sp.lowWater,
			Truncated: sp.truncated, MaxSlot: sp.maxSlot, ExecMark: sp.execMark, ExecDigest: sp.execDigest, LogHash: sp.logHash}
		if st := r.life.Stable(engine.CheckpointSpace(i)); st != nil {
			sc.LowWater, sc.StableDigest = st.Mark, st.Digest
			resp.Proof = append(resp.Proof, st.Votes...)
		}
		resp.Spaces = append(resp.Spaces, sc)
	}
	if marks == nil {
		for c, ts := range r.executedTs {
			resp.Clients = append(resp.Clients, ClientMark{Client: c, Ts: ts})
		}
		slices.SortFunc(resp.Clients, func(a, b ClientMark) int { return cmp.Compare(a.Client, b.Client) })
	}
	return resp
}

// retained returns the slots of space i's retained entries above floor in
// slot order, in scratch that the next call reuses. A space is sparse (a
// far slot can sit far above the rest), so the present slots are sorted
// rather than the range walked.
func (r *Replica) retained(i int, floor uint64) []uint64 {
	slots := r.slotScratch[:0]
	for slot := range r.log.space(types.ReplicaID(i)).entries {
		if slot > floor {
			slots = append(slots, slot)
		}
	}
	slices.Sort(slots)
	r.slotScratch = slots
	return slots
}

// report is the entry as a transfer carries it: with its status and
// strongest proof.
func (e *entry) report() HistEntry {
	switch {
	case e.status >= StatusExecuted:
		return e.hist(HistExecuted)
	case e.status >= StatusCommitted:
		return e.hist(HistCommitted)
	}
	return e.hist(HistSpecOrdered)
}

// Admit implements engine.LogHost: a response's proofs and the internal
// consistency of its per-space state, then the trust rule of the file
// comment — f+1 agreement for a wholesale transfer, per-entry evidence for
// a tail.
func (r logHost) Admit(ctx proc.Context, m *CatchupResp) engine.Admission {
	if len(m.Spaces) != r.n {
		return engine.Reject
	}
	if !r.life.Valid(ctx, m.Replica, m, m.Sig) {
		return engine.Ignore
	}
	if _, ok := types.Application(r.cfg.App).(types.Snapshotter); !ok && !m.Tail {
		return engine.Ignore // a wholesale install needs a snapshot-restoring application
	}
	r.cfg.Costs.ChargeVerify(ctx, len(m.Proof))
	ahead := false
	for i := range m.Spaces {
		sc := &m.Spaces[i]
		if sc.Space != types.ReplicaID(i) || sc.Truncated > sc.ExecMark || sc.ExecMark > sc.MaxSlot ||
			sc.LowWater > 0 && !r.life.ProofValid(engine.CheckpointSpace(sc.Space), sc.LowWater, sc.StableDigest, m.Proof) {
			return engine.Reject
		}
		if m.Tail {
			// A tail merges incrementally, so the wholesale ahead-ness bar
			// does not apply; soundness instead rests on the per-entry
			// evidence check below — every adopted entry is either covered
			// by the proof verified above or leader-signed.
			continue
		}
		sp := r.log.space(sc.Space)
		// Installing replaces this replica's state wholesale, so it is only
		// sound when the responder is at least as far along everywhere.
		if sc.ExecMark < sp.execMark || sc.MaxSlot < sp.maxSlot {
			return engine.Ignore
		}
		ahead = ahead || sc.ExecMark > sp.execMark || sc.MaxSlot > sp.maxSlot
	}
	if !m.Tail && !ahead {
		return engine.Settled // nothing to gain
	}
	// Suffix entries must be bound to their leader-signed SPECORDER proofs
	// (executed entries from truncation-adjacent slots may predate proof
	// retention; accept them — their effects are checkpoint-covered or will
	// be re-agreed by the commit machinery).
	for i := range m.Suffix {
		h := &m.Suffix[i]
		if h.Inst.Space < 0 || int(h.Inst.Space) >= r.n || h.SO != nil && (h.SO.Inst != h.Inst || !histBoundToSO(h)) {
			return engine.Reject
		}
	}
	if !m.Tail {
		return engine.Agree
	}
	// A tail merges into the live log without the wholesale path's snapshot
	// install and strict ahead-ness gate, so each suffix entry must carry
	// its own evidence before adoptHist may touch live state: either
	// coverage by the checkpoint proof verified above (slot at or below a
	// space's proven low-water mark) or a leader-signed SPECORDER —
	// signature-verified here, not merely digest-bound. An entry with
	// neither (a lying responder's fabricated "committed" entry, or a
	// legitimate SO-less owner-change no-op fill whose provenance a single
	// responder cannot prove) is dropped, not adopted: the owner-change
	// protocol arbitrates such slots, never a state transfer.
	kept := m.Suffix[:0]
	for i := range m.Suffix {
		h := &m.Suffix[i]
		if sc := &m.Spaces[h.Inst.Space]; sc.LowWater > 0 && h.Inst.Slot <= sc.LowWater {
			kept = append(kept, m.Suffix[i])
			continue
		}
		if h.SO == nil {
			r.stats.DroppedInvalid++
			continue
		}
		if !h.SO.SigVerified() {
			r.cfg.Costs.ChargeVerify(ctx, 1)
			if engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(h.SO.Owner.OwnerOf(r.n)), h.SO, h.SO.Sig) != nil {
				r.stats.DroppedInvalid++
				continue
			}
		}
		kept = append(kept, m.Suffix[i])
	}
	m.Suffix = kept
	return engine.Adopt
}

// Agree implements engine.LogHost with catchupAgrees.
func (logHost) Agree(a, b *CatchupResp) bool { return catchupAgrees(a, b) }

// catchupAgrees reports whether two validated wholesale responses describe
// the same transfer: identical per-space checkpoint structs, per-client
// executed-timestamp tables, snapshot bytes, and suffix entries (compared
// by canonical encoding — both responders serve their suffix in (space,
// slot) order, so honest replicas at the same marks produce identical
// sequences). Everything that install touches is inside the key; nothing a
// single liar controls escapes cross-validation.
func catchupAgrees(a, b *CatchupResp) bool {
	if len(a.Spaces) != len(b.Spaces) || !slices.Equal(a.Clients, b.Clients) ||
		len(a.Suffix) != len(b.Suffix) || !bytes.Equal(a.Snapshot, b.Snapshot) {
		return false
	}
	for i := range a.Spaces {
		// LogHash is the owner's local proposal-chain commitment — only a
		// space's owner maintains it (acceptors leave it zero), so honest
		// responders in different roles legitimately differ there. It is
		// advisory local state, not transferred truth: exclude it.
		ac, bc := a.Spaces[i], b.Spaces[i]
		ac.LogHash, bc.LogHash = types.Digest{}, types.Digest{}
		if ac != bc {
			return false
		}
	}
	for i := range a.Suffix {
		if !histEntryEqual(&a.Suffix[i], &b.Suffix[i]) {
			return false
		}
	}
	return true
}

// histEntryEqual compares suffix entries by their canonical wire encoding.
func histEntryEqual(a, b *HistEntry) bool {
	wa := codec.NewWriter(256)
	a.marshalTo(wa)
	wb := codec.NewWriter(256)
	b.marshalTo(wb)
	return bytes.Equal(wa.Bytes(), wb.Bytes())
}

// Install implements engine.LogHost: a tail merges, a wholesale transfer
// replaces the replica's state.
func (r logHost) Install(ctx proc.Context, m *CatchupResp, _ []*CatchupResp) bool {
	if m.Tail {
		r.installTail(ctx, m)
		return true
	}
	return r.installTransfer(ctx, m, types.Application(r.cfg.App).(types.Snapshotter))
}

// installTail merges a tail response into the live state: adopt the
// proof-backed low-water marks, install (or deterministically merge) each
// suffix entry through the same adoption path recovery replay uses, and
// let the ordinary execution machinery run the recovered tail — the
// executed prefix below it is never transferred, which is the point.
func (r *Replica) installTail(ctx proc.Context, m *CatchupResp) {
	for i := range m.Spaces {
		sc := &m.Spaces[i]
		sp := r.log.space(sc.Space)
		sp.lowWater = max(sp.lowWater, sc.LowWater)
		r.owners[sc.Space] = max(r.owners[sc.Space], sc.Owner)
	}
	for i := range m.Suffix {
		r.adoptHist(ctx, &m.Suffix[i], false)
	}
	// Never reuse a slot of our own space the tail says is taken.
	r.nextSlot = max(r.nextSlot, r.log.space(r.cfg.Self).maxSlot+1)
	// Proposals buffered out of order may have become contiguous with the
	// merged tail.
	for i := 0; i < r.n; i++ {
		sp := r.log.space(types.ReplicaID(i))
		if !sp.frozen {
			r.drainPending(ctx, sp)
		}
	}
	r.stats.TailsInstalled++
	r.tryExecute(ctx)
}

// installTransfer is the wholesale state-install shared by the network
// transfer and crash recovery (durable.go replays the persisted
// snapshot through it). It reports whether the transfer was applied.
func (r *Replica) installTransfer(ctx proc.Context, m *CatchupResp, snap types.Snapshotter) bool {
	if err := snap.Restore(m.Snapshot); err != nil {
		return false
	}
	// The restored final state supersedes any speculative overlay.
	r.cfg.App.Rollback()

	// Proposals that arrived (validated, out of order) while the transfer
	// was in flight resume contiguity above the transferred head; keep them
	// across the log replacement.
	oldPending := make(map[types.ReplicaID]map[uint64]*SpecOrder, r.n)
	for i := 0; i < r.n; i++ {
		sp := r.log.space(types.ReplicaID(i))
		if len(sp.pending) > 0 {
			oldPending[types.ReplicaID(i)] = sp.pending
		}
	}
	// Commit decisions that raced ahead of their SPECORDERs survive the
	// transfer too: for instances above the transferred head they are the
	// only commit evidence this replica will ever hold (peers do not
	// re-broadcast), so dropping them would leave the re-admitted tail
	// speculative until the next checkpoint.
	oldDeferred := r.deferredCommits

	r.log = newCmdLog(r.n)
	r.deps = newDepIndex()
	r.instByCmd = make(map[cmdKey]types.InstanceID)
	r.replyCache = make(map[cmdKey]*SpecReply)
	r.pendingExec = make(map[types.InstanceID]*entry)
	r.executed = make(map[cmdKey]types.Result)
	r.deferredCommits = make(map[types.InstanceID][]certified)
	for key, rs := range r.resendWait {
		delete(r.resendWait, key)
		r.ForgetTimer(rs.timer)
	}
	r.depWait = make(map[types.InstanceID]bool)
	r.execLog = nil // records post-transfer executions only

	// Exactly-once across the transfer: commands the snapshot already
	// reflects are identified by the responder's executed-timestamp table;
	// duplicate instances of them above the marks are skipped at final
	// execution.
	r.executedTs = make(map[types.ClientID]uint64, len(m.Clients))
	r.settled = make(map[types.ClientID]tsSet, len(m.Clients))
	for _, cm := range m.Clients {
		r.executedTs[cm.Client] = cm.Ts
		r.settled[cm.Client] = tsSet{{0, cm.Ts}}
		r.window.Seen(cm.Client, cm.Ts)
	}

	for i := range m.Spaces {
		sc := &m.Spaces[i]
		sp := r.log.space(sc.Space)
		sp.frozen = sc.Frozen
		sp.lowWater = sc.LowWater
		sp.truncated = sc.Truncated
		sp.maxSlot = sc.MaxSlot
		sp.execMark = sc.ExecMark
		sp.execDigest = sc.ExecDigest
		sp.logHash = sc.LogHash
		r.owners[sc.Space] = max(r.owners[sc.Space], sc.Owner)
	}

	for i := range m.Suffix {
		h := &m.Suffix[i]
		e := entryFromHist(h)
		sp := r.log.space(h.Inst.Space)
		sp.entries[h.Inst.Slot] = e
		sp.maxSlot = max(sp.maxSlot, h.Inst.Slot)
		for j := 0; j < e.nCmds(); j++ {
			cmd := e.cmdAt(j)
			if cmd.IsNoop() {
				continue
			}
			r.instByCmd[cmdKey{cmd.Client, cmd.Timestamp}] = e.inst
			r.deps.update(e.inst, cmd, e.seq)
			r.window.Seen(cmd.Client, cmd.Timestamp)
			// Executed suffix entries carry no results (HistEntry has none),
			// so nothing is memoized for them; exactly-once for their
			// commands is covered by the responder's executed-timestamp
			// table, which includes everything it executed — suffix included.
			if e.status >= StatusExecuted && cmd.Timestamp > r.executedTs[cmd.Client] {
				r.executedTs[cmd.Client] = cmd.Timestamp
			}
		}
		if e.status == StatusCommitted {
			r.pendingExec[e.inst] = e
		}
	}

	// Never reuse a slot of our own space the transfer says is taken.
	r.nextSlot = max(r.nextSlot, r.log.space(r.cfg.Self).maxSlot+1)

	// Re-admit buffered proposals beyond the transferred head and drain
	// whatever is now contiguous.
	for spaceID, pend := range oldPending {
		sp := r.log.space(spaceID)
		if sp.frozen {
			continue
		}
		for slot, so := range pend {
			if slot > sp.maxSlot {
				sp.pending[slot] = so
			}
		}
		r.drainPending(ctx, sp)
	}
	for inst, dcs := range oldDeferred {
		if inst.Slot <= r.log.space(inst.Space).truncated {
			continue // the transferred state already covers it
		}
		r.deferredCommits[inst] = dcs
		if r.log.get(inst) != nil {
			r.drainDeferredCommits(ctx, inst)
		}
	}
	r.tryExecute(ctx)
	return true
}

// handleSOFetch serves a client's fetch-on-conflict request with the full
// leader-signed SPECORDER behind a proposal reference.
func (r *Replica) handleSOFetch(ctx proc.Context, m *SOFetch) {
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ClientNode(m.Client), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	if m.Inst.Space < 0 || int(m.Inst.Space) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	e := r.log.get(m.Inst)
	if e == nil || e.so == nil || e.so.CmdDigest != m.Ref {
		return // unknown, truncated, or a different proposal — nothing to serve
	}
	r.Send(ctx, types.ClientNode(m.Client), e.so)
}

// Lifecycle inspection helpers (tests, experiments, operators).

// LogEntryCount returns the number of retained command-log entries across
// all instance spaces.
func (r *Replica) LogEntryCount() int { return r.log.entryCount() }

// DepIndexSize returns the number of live dependency-index references.
func (r *Replica) DepIndexSize() int { return r.deps.size() }

// LowWaterMark returns a space's stable checkpoint mark.
func (r *Replica) LowWaterMark(space types.ReplicaID) uint64 { return r.log.space(space).lowWater }

// ExecMark returns a space's contiguously executed prefix length.
func (r *Replica) ExecMark(space types.ReplicaID) uint64 { return r.log.space(space).execMark }
