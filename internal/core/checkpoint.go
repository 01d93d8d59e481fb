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

// This file implements ezBFT's log lifecycle: checkpointing, garbage
// collection, and state-transfer catch-up (the §V garbage-collection sketch,
// grown into a full subsystem on the engine-level checkpointing contract).
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
// A replica that observes a stable checkpoint beyond the end of its own log
// (sp.maxSlot < mark) can no longer recover the gap from retransmissions —
// peers may have truncated it. It sends CATCHUP-REQ to one of the vouching
// replicas; the responder answers with CATCHUP-RESP carrying (1) the
// checkpoint proof — the 2f+1 signed CHECKPOINT votes per space — (2) an
// application snapshot of its final state (types.Snapshotter), (3) its
// per-client executed-timestamp table for exactly-once semantics across the
// transfer, and (4) the suffix: every retained log entry above its
// truncation point, with status and SPECORDER proofs. The requester
// verifies the proof (2f+1 valid signatures over the claimed marks and
// digests), installs the snapshot, rebuilds its protocol state from the
// suffix, and rejoins.
//
// Trust model: the checkpoint proof is verified against 2f+1 signatures,
// and suffix entries are checked against their embedded leader-signed
// SPECORDERs, but the snapshot bytes themselves are vouched for only by
// the responders. ezBFT replicas execute non-interfering commands in
// different orders, so no common sequence of application states exists for
// a quorum to have co-signed (unlike the sequenced baselines, where PBFT's
// snapshot digest is checked against the stable checkpoint digest). A
// wholesale transfer is therefore installed only once f+1 distinct
// responders agree byte-for-byte on the transferred state — per-space
// checkpoint structs, the per-client executed-timestamp table, and the
// snapshot itself (the quorum-anchored proofs pin the marks; the f+1
// agreement pins the bytes behind them). With at most f Byzantine
// replicas, any f+1 group contains a correct one, so a lying responder —
// even one colluding with a checkpoint-forging voter — can neither corrupt
// the rejoining replica nor wedge it: requests rotate through the voter
// set, disagreeing minorities are discarded and counted
// (CatchupMismatches), and responses accumulate across rounds until an
// honest majority forms. Tail transfers carry per-entry evidence (proof
// coverage or a verified SPECORDER signature) and merge incrementally, so
// they remain single-responder.
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
// slot and emitting a CHECKPOINT vote at every interval boundary crossed.
func (r *Replica) advanceExecMark(ctx proc.Context, spaceID types.ReplicaID) {
	sp := r.log.space(spaceID)
	for {
		e := sp.entries[sp.execMark+1]
		if e == nil || e.status < StatusExecuted {
			return
		}
		sp.execMark++
		sp.execDigest = chainExecDigest(sp.execDigest, sp.execMark, e.cmdDigest)
		if r.ckpt.Boundary(sp.execMark) {
			r.emitCheckpoint(ctx, spaceID, sp)
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

// emitCheckpoint broadcasts this replica's vote for the space's current
// execution watermark and tallies it locally.
func (r *Replica) emitCheckpoint(ctx proc.Context, spaceID types.ReplicaID, sp *space) {
	m := &CheckpointMsg{
		Space:   spaceID,
		Slot:    sp.execMark,
		Digest:  sp.execDigest,
		Replica: r.cfg.Self,
	}
	r.cfg.Costs.ChargeSign(ctx)
	m.Sig = engine.SignBody(r.cfg.Auth, m)
	// Durability point: the vote must survive a crash before peers tally it.
	r.walVote(m)
	r.Broadcast(ctx, m)
	if st := r.ckpt.Record(engine.CheckpointSpace(spaceID), m.Slot, r.cfg.Self, m.Digest, m); st != nil {
		r.applyStableCheckpoint(ctx, st)
	}
}

// handleCheckpoint tallies a peer's vote; a completed 2f+1 quorum advances
// the space's low-water mark and truncates.
func (r *Replica) handleCheckpoint(ctx proc.Context, m *CheckpointMsg) {
	if !r.ckpt.Enabled() {
		return // checkpointing disabled locally; ignore peers' votes
	}
	if m.Space < 0 || int(m.Space) >= r.n || m.Replica < 0 || int(m.Replica) >= r.n {
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
	// Durability point: the validated vote is quorum state a restart must
	// be able to re-tally.
	r.walVote(m)
	if st := r.ckpt.Record(engine.CheckpointSpace(m.Space), m.Slot, m.Replica, m.Digest, m); st != nil {
		r.applyStableCheckpoint(ctx, st)
	}
}

// applyStableCheckpoint reacts to a newly stable checkpoint: advance the
// space's low-water mark, truncate, surface the checkpoint to the
// application, and — if this replica cannot reach the mark by itself — start
// a state transfer (peers may already have truncated the gap).
func (r *Replica) applyStableCheckpoint(ctx proc.Context, st *engine.StableCheckpoint) {
	spaceID := types.ReplicaID(st.Space)
	sp := r.log.space(spaceID)
	sp.lowWater = max(sp.lowWater, st.Mark)
	r.truncateSpace(spaceID, sp)
	if ck, ok := types.Application(r.cfg.App).(types.Checkpointer); ok {
		ck.Checkpoint(st.Mark, st.Digest)
	}
	// A replica whose log ends below the stable mark, or whose executed
	// prefix trails it by two full intervals, has holes it can no longer
	// fill from retransmissions (peers may have truncated them; SPECORDERs
	// are not re-broadcast): state transfer is the only way back. A commit
	// certificate can install entries at high slots over holes, so maxSlot
	// alone is not evidence of an intact prefix.
	need := sp.maxSlot < st.Mark || sp.execMark+2*r.ckpt.Interval() <= st.Mark
	if !need {
		// The lag slack above tolerates in-flight execution, but an outright
		// missing slot below the stable mark is a permanent hole: f+1
		// replicas executed that prefix and moved on, and its SPECORDER will
		// never be sent again.
		var uncommitted bool
		need, uncommitted = sp.holeThrough(st.Mark)
		if !need && uncommitted && !r.Recovering() {
			// So is a slot whose entry is here and whose COMMIT is not: 2f+1
			// replicas executed it, its client is done, and nobody sends that
			// COMMIT again. One merely in flight would buy a needless
			// transfer, so look again after the catch-up retry delay and ask
			// only if a slot is still uncommitted then.
			r.AfterTimer(ctx, 2*r.cfg.ResendTimeout, func(ctx proc.Context) {
				if missing, uncommitted := r.log.space(spaceID).holeThrough(st.Mark); missing || uncommitted {
					r.requestCatchup(ctx, st)
				}
			})
		}
	}
	if need && !r.Recovering() {
		// During recovery the gap is expected mid-replay; the post-replay
		// sweep in Init issues the (tail) catch-up instead.
		r.requestCatchup(ctx, st)
	}
	// Durability point: a newly stable checkpoint cuts the store snapshot,
	// letting the store discard the WAL prefix it subsumes (see durable.go).
	r.persistSnapshot()
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

// truncateSpace frees log entries the stable low-water mark has made dead
// weight: slots at or below mark−LogRetention that this replica has itself
// finally executed. Freed entries take their dependency-index references
// and parked commit decisions with them, and hand their per-request
// bookkeeping to the client window to release.
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

// requestCatchup asks a window of a stable checkpoint's voters for a state
// transfer. Wholesale installs require f+1 byte-identical responses (see
// handleCatchupResp), so each round solicits f+1 distinct voters; the
// window slides across the sorted voter set attempt by attempt, and a
// timer clears the in-flight guard so lost responses retry — a Byzantine
// voter that stays silent (or serves garbage) cannot wedge the rejoin
// forever, and its divergent responses can never seat an f+1 group alone.
func (r *Replica) requestCatchup(ctx proc.Context, st *engine.StableCheckpoint) {
	if r.catchupPending {
		return
	}
	var voters []types.ReplicaID
	for _, v := range st.Votes {
		if cm, ok := v.(*CheckpointMsg); ok && cm.Replica != r.cfg.Self {
			voters = append(voters, cm.Replica)
		}
	}
	if len(voters) == 0 {
		return
	}
	slices.Sort(voters)
	base := int(r.catchupAttempts) % len(voters)
	r.catchupAttempts++
	r.catchupPending = true
	// Advertise our per-space positions so the responder can serve only the
	// tail when our executed prefix already covers its truncation point.
	req := &CatchupReq{Replica: r.cfg.Self, Marks: make([]SpaceMark, r.n)}
	for i := 0; i < r.n; i++ {
		sp := r.log.space(types.ReplicaID(i))
		req.Marks[i] = SpaceMark{ExecMark: sp.execMark, MaxSlot: sp.maxSlot}
	}
	r.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(r.cfg.Auth, req)
	want := min(r.f+1, len(voters))
	for k := 0; k < want; k++ {
		r.Send(ctx, types.ReplicaNode(voters[(base+k)%len(voters)]), req)
	}
	// The retry delay backs off with jitter (the shared helper the client's
	// request retry uses): a healed partition releasing many laggards at
	// once must not have them re-request — and re-storm — in lockstep.
	retry := proc.Backoff(ctx, 2*r.cfg.ResendTimeout, r.catchupRetries)
	r.AfterTimer(ctx, retry, func(ctx proc.Context) {
		if !r.catchupPending {
			return // a transfer installed in the meantime
		}
		r.catchupPending = false
		if r.catchupHeard {
			// Responders answered but no f+1 group formed yet — keep the
			// cadence tight rather than backing off; the skew resolves as
			// soon as honest responders serve from the same state.
			r.catchupHeard = false
		} else {
			r.catchupRetries++
		}
		// The request or its response was lost. Re-issue to the next voter
		// right away: waiting for the next stability signal is not enough —
		// in a quiesced system it may never come, and the rejoin would
		// stall within one interval of the frontier forever.
		if r.log.space(types.ReplicaID(st.Space)).execMark < st.Mark {
			r.requestCatchup(ctx, st)
		}
	})
}

// handleCatchupReq serves a state transfer from this replica's live state:
// checkpoint proofs from the tracker, an application snapshot, the
// executed-timestamp table, and every retained log entry.
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
	snap, ok := types.Application(r.cfg.App).(types.Snapshotter)
	if !ok || !r.ckpt.Enabled() {
		return // no state transfer without a snapshotting application
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
	r.Send(ctx, types.ReplicaNode(m.Replica), resp)
	r.stats.CatchupsServed++
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
		if st := r.ckpt.Stable(engine.CheckpointSpace(i)); st != nil {
			sc.LowWater, sc.StableDigest = st.Mark, st.Digest
			for _, v := range st.Votes {
				if cm, ok := v.(*CheckpointMsg); ok {
					resp.Proof = append(resp.Proof, cm)
				}
			}
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

// handleCatchupResp validates and installs a state transfer.
func (r *Replica) handleCatchupResp(ctx proc.Context, m *CatchupResp) {
	if !r.catchupPending {
		return // unsolicited
	}
	if m.Replica < 0 || int(m.Replica) >= r.n || len(m.Spaces) != r.n {
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
	snap, ok := types.Application(r.cfg.App).(types.Snapshotter)
	if !ok && !m.Tail {
		return // a wholesale install needs a snapshot-restoring application
	}
	// Verify the checkpoint proof: 2f+1 valid, distinct signatures per
	// claimed stable mark, and internal consistency of the per-space state.
	r.cfg.Costs.ChargeVerify(ctx, len(m.Proof))
	ahead := false
	for i := range m.Spaces {
		sc := &m.Spaces[i]
		if sc.Space != types.ReplicaID(i) || sc.Truncated > sc.ExecMark || sc.ExecMark > sc.MaxSlot {
			r.stats.DroppedInvalid++
			return
		}
		if sc.LowWater > 0 {
			if !engine.VerifyCheckpointProof(r.n, checkpointVotes(m.Proof, sc.Space), sc.LowWater, sc.StableDigest, r.checkpointVote) {
				r.stats.DroppedInvalid++
				return
			}
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
			return
		}
		if sc.ExecMark > sp.execMark || sc.MaxSlot > sp.maxSlot {
			ahead = true
		}
	}
	if !m.Tail && !ahead {
		r.catchupPending = false
		// Caught up by other means: buffered responses describe a state we
		// have reached and can only go stale from here.
		r.catchupResps = make(map[types.ReplicaID]*CatchupResp)
		return // nothing to gain
	}
	// Suffix entries must be bound to their leader-signed SPECORDER proofs
	// (executed entries from truncation-adjacent slots may predate proof
	// retention; accept them — their effects are checkpoint-covered or will
	// be re-agreed by the commit machinery).
	for i := range m.Suffix {
		h := &m.Suffix[i]
		if h.Inst.Space < 0 || int(h.Inst.Space) >= r.n {
			r.stats.DroppedInvalid++
			return
		}
		if h.SO != nil && (h.SO.Inst != h.Inst || !histBoundToSO(h)) {
			r.stats.DroppedInvalid++
			return
		}
	}
	if m.Tail {
		// A tail merges into the live log without the wholesale path's
		// snapshot install and strict ahead-ness gate, so each suffix entry
		// must carry its own evidence before adoptHist may touch live state:
		// either coverage by the checkpoint proof verified above (slot at or
		// below a space's proven low-water mark) or a leader-signed
		// SPECORDER — signature-verified here, not merely digest-bound. An
		// entry with neither (a lying responder's fabricated "committed"
		// entry, or a legitimate SO-less owner-change no-op fill whose
		// provenance a single responder cannot prove) is dropped, not
		// adopted: the owner-change protocol arbitrates such slots, never a
		// state transfer.
		kept := m.Suffix[:0]
		for i := range m.Suffix {
			h := &m.Suffix[i]
			sc := &m.Spaces[h.Inst.Space]
			if sc.LowWater > 0 && h.Inst.Slot <= sc.LowWater {
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
		r.installTail(ctx, m)
		return
	}
	// f+1 cross-validation: a wholesale response replaces this replica's
	// state with bytes only the responders vouch for, so buffer it and
	// install only once f+1 distinct responders agree byte-for-byte on the
	// whole transfer (per-space checkpoint state, timestamp table, snapshot,
	// suffix). At most f replicas are Byzantine, so an agreeing f+1 group
	// contains a correct one and its transfer is the real state; responders
	// outside the group are the discarded — and counted — minority. The
	// buffer survives retry rounds so agreement can form across voter-window
	// rotations even when single responses trickle in.
	r.catchupResps[m.Replica] = m
	agreeing := 0
	for _, o := range r.catchupResps {
		if catchupAgrees(m, o) {
			agreeing++
		}
	}
	if agreeing < r.f+1 {
		r.catchupHeard = true
		return
	}
	r.stats.CatchupMismatches += uint64(len(r.catchupResps) - agreeing)
	r.catchupResps = make(map[types.ReplicaID]*CatchupResp)
	r.installCatchup(ctx, m, snap)
}

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

// installTail merges a tail response into the live state: adopt the
// proof-backed low-water marks, install (or deterministically merge) each
// suffix entry through the same adoption path recovery replay uses, and
// let the ordinary execution machinery run the recovered tail — the
// executed prefix below it is never transferred, which is the point.
func (r *Replica) installTail(ctx proc.Context, m *CatchupResp) {
	r.catchupPending = false
	r.catchupRetries = 0
	// Any buffered wholesale responses predate this merge; left around they
	// could later seat an f+1 group and regress the state the tail advanced.
	r.catchupResps = make(map[types.ReplicaID]*CatchupResp)
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
	r.stats.CatchupsInstalled++
	r.stats.TailsInstalled++
	r.tryExecute(ctx)
}

// checkpointVotes selects a proof's votes for one space.
func checkpointVotes(proof []*CheckpointMsg, space types.ReplicaID) []codec.Message {
	out := make([]codec.Message, 0, len(proof))
	for _, v := range proof {
		if v.Space == space {
			out = append(out, v)
		}
	}
	return out
}

// checkpointVote reads one vote of a stable-mark proof for
// engine.VerifyCheckpointProof, checking its signature.
func (r *Replica) checkpointVote(msg codec.Message) (types.ReplicaID, uint64, types.Digest, bool) {
	cm := msg.(*CheckpointMsg)
	valid := cm.SigVerified() || engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(cm.Replica), cm, cm.Sig) == nil
	return cm.Replica, cm.Slot, cm.Digest, valid
}

// installCatchup replaces this replica's application and protocol state
// with a validated state transfer and resumes normal operation from it.
func (r *Replica) installCatchup(ctx proc.Context, m *CatchupResp, snap types.Snapshotter) {
	if !r.installTransfer(ctx, m, snap) {
		return
	}
	r.catchupPending = false
	r.catchupRetries = 0
	r.stats.CatchupsInstalled++
}

// installTransfer is the wholesale state-install shared by the network
// catch-up path and crash recovery (durable.go replays the persisted
// snapshot through it). It reports whether the transfer was applied.
func (r *Replica) installTransfer(ctx proc.Context, m *CatchupResp, snap types.Snapshotter) bool {
	if err := snap.Restore(m.Snapshot); err != nil {
		r.stats.DroppedInvalid++
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
