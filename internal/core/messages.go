// Package core implements ezBFT (Arun, Peluso, Ravindran — ICDCS 2019), a
// leaderless Byzantine fault-tolerant state machine replication protocol.
//
// Every replica acts as command-leader for the requests its clients send it,
// ordering them in its own instance space. In the fast path a command
// commits in three client-visible communication steps: REQUEST (client →
// command-leader), SPECORDER (command-leader → replicas, with proposed
// dependencies and sequence number), and SPECREPLY (replicas speculatively
// execute and answer the client directly). The client commits the command
// with a fast decision on 3f+1 matching replies, or falls back to a slow
// path (COMMIT / COMMITREPLY, two extra steps) with a 2f+1 quorum whose
// dependency sets it combines. Dependency graphs are linearized with
// strongly connected components in inverse topological order (see
// internal/graph). Faulty command-leaders are handled by the owner-change
// protocol: their instance space is handed to the next replica and frozen.
//
// # Execution determinism
//
// Final execution follows the paper's rule (§IV-B) on one path (exec.go),
// on the replica's own goroutine: each committed closure is linearized —
// strongly connected components in inverse topological order, members by
// sequence number, ties broken by instance — and its commands are applied
// in that order. Every decision on the way (a no-op, an exactly-once memo
// hit, a settled-timestamp skip) reads only state that earlier steps of the
// same walk produced, so results, the executed memo, executedTs watermarks,
// entry statuses, checkpoint marks, commit-reply order and simulated cost
// charges are the same on every correct replica that committed the same
// closures.
//
// The execution log those checks compare is not something a replica keeps:
// final execution reports each command to an observer (Replica.execObserver)
// that is nil in every replica a running system builds. Test clusters and
// ExecHarness install one through RecordExecutions, and ExecutedLog returns
// what it recorded.
//
// # What a request costs a replica, and for how long
//
// With checkpointing on, everything a replica keeps per request is bounded
// by the checkpoint lag and the clients' window, not by how long it has
// run:
//
//   - the log entry (with its SPECORDER, dependency set and results) lives
//     until its space's stable checkpoint passes it and LogRetention more
//     slots (truncateSpace), as do the dependency-index references to it
//     and any commit decisions parked for it;
//   - instByCmd, replyCache (each cached SPECREPLY pins its SPECORDER and
//     request) and the exactly-once memo executed hold a request until its
//     entry is truncated and it is engine.ReplyRetention timestamps behind
//     its client's highest, whichever comes last (engine.RequestWindow,
//     releaseRequest) — at most ReplyRetention requests per client beyond
//     the retained entries. A REQUEST from below that window is dropped at
//     admission, since nothing is left to answer it with (clients keep
//     their outstanding timestamps inside the window: workload.Outstanding);
//   - pendingExec, deferredCommits, resendWait and depWait hold only
//     instances on their way to execution and empty as those finish;
//   - per client ever seen: one window record, one timestamp (executedTs)
//     and the settled set — the executed timestamps no memo records any
//     more, as ranges: one range for a client that numbers its requests
//     consecutively, one more per timestamp it skips for good. It is what
//     keeps execution exactly-once after the memo is released.
//
// Dependency sets are types.InstanceSet values — sorted slices, nil when
// empty — shared freely between a message, the log entry built from it and
// the replies built from that: no holder writes into one in place.
//
// # Certificates
//
// A client commits by showing replicas the SPECREPLYs it decided on, and a
// certificate carries each thing once. Matching replies differ only in
// sender and signature, so a certificate of agreeing replies is the one
// SPECREPLY they all sent — Cert has exactly one element — plus the other
// senders' (replica, signature) pairs in Sigs, each checked over that one
// body with the signer's id in place. A COMMITFAST is always of this compact
// form (3f+1 replies agree by definition), and so is a COMMIT whose 2f+1
// replies agree, which is every slow commit a silent replica causes. Only a
// COMMIT whose replies differ in dependencies, sequence number or result
// carries them whole, and then only the first travels with the SPECORDER.
// One is enough: all replies of a certificate vouch for one proposal; a
// replica reads the SPECORDER only to install an instance it never saw,
// after binding it to what the first reply signed (commitEntry); and
// evidence of equivocation travels in a POM. Both messages, in both forms,
// pass the same checks: signatures on the verifier pool (preVerifyCert) and
// signers, quorum and proposal in the loop (validateCert).
//
// Which signer's reply a compact certificate (a COMMITFAST's, or a COMMIT's
// whose replies agree) carries is the client's choice, and over TCP it picks
// per destination (codec.Tailored): each replica that signed gets its own
// reply as the carried one, byte for byte as it sent it. A replica's
// transport keeps every SPECREPLY it sends in its decode memo
// (codec.KeptWhenSent), in a table of sent values where a reply stays until
// the replica has answered dozens of later instances of its space, so the
// certificate decodes to the reply value the replica already holds,
// SPECORDER included, and nothing of it is parsed again. A replica that
// signed nothing, a COMMIT whose replies disagree, and every replica on the
// mesh and the simulator get the one form MarshalTo writes. What a replica
// stores of a COMMIT it writes in one form whichever it was sent
// (Commit.marshalCanonical), so honest replicas' records agree.
//
// # Where a replica's commits come from
//
// A replica learns that an instance committed from the client: its
// COMMITFAST or COMMIT, broadcast to every replica. The client sends it once.
// When a replica is down, the client's transport stops dialling it for a
// while (transport.TCPPeer's back-off), so a replica that comes back during
// that pause never receives the commits the client skipped, and the network
// may lose one too. The replica keeps each certificate it received in the
// entry, and one that holds an entry uncommitted for a whole DepWaitTimeout
// asks its peers for theirs with a COMMITFETCH (commitfetch.go). The answer
// is the client's own certificate, which verifies by itself, so one honest
// peer is enough. A slot that no correct replica holds a certificate for is
// still settled by the owner change (armDepWait) or a state transfer.
//
// # Client timers
//
// The fast path needs a reply from every replica, so a client holding a slow
// quorum still waits for the rest until its slow-path timer (step 4.2,
// ClientConfig.SlowPathTimeout) says otherwise. A replica that has stopped
// answering must cost that wait twice, not once per request, and one that
// answers has to be given exactly the timer it always got. The client keeps
// an engine.ReplyWatch and goes by four rules:
//
//	(a) Two misses in a row mark a replica silent, one does not. A miss is
//	    the timer expiring on a request with a slow quorum in hand and that
//	    replica's reply not in it; the second must be on a request sent
//	    after the first was noticed (one stall makes every request in
//	    flight late, and is one miss); an answer in between starts the
//	    count again. Overloaded replicas are late now and then, never twice
//	    running for one client.
//	(b) A silent replica is not waited for, but still listened to. With
//	    everyone else's replies in, the client takes the slow path at once;
//	    the silent one's reply, if it comes, completes a fast quorum as any
//	    other would, after the COMMIT included. New requests go to the first
//	    replica at or after the client's own leader that is not silent —
//	    any replica can order them. A leader that answers again but lost its
//	    instance space while it was away hands them to the next replica
//	    (handleRequest), so returning to it costs a message delay, not the
//	    retry timer.
//	(c) A mark is lifted by answers, never by time passing: the replica must
//	    have answered, before the decision, every request the client decided
//	    over a probation of 4 × the timer, doubling each time it is marked
//	    again, up to 64 ×. A replica that is down for good is never waited
//	    for a second time; one that alternates stalls a share of the requests
//	    that only shrinks.
//	(d) 2, 4 × and 64 × are constants.
//
// Only replies that passed verification for a request still pending are
// evidence of anything. ClientStats.SlowTimeouts counts the requests that
// waited the timer out and SilentSkips the COMMITs sent without waiting; where
// every replica answers both stay zero and the client does what it did
// before it kept a watch.
//
// This file defines the wire messages (codec tags 10–25, 67 and 68). Signed
// messages carry their signature separately from the body; the signature
// covers the deterministic codec encoding of the body (signedBody).
//
// Batching (owner-side request batching): a SPECORDER may order a batch of
// client requests in a single instance. Batches of one use the original
// unbatched wire layout and tags 10–20 — byte-for-byte identical to the
// pre-batching protocol — while batches of two or more use the parallel
// "batched" tags 21–25, whose layouts extend the originals with the extra
// requests (SPECORDER), a batch index (SPECREPLY), or per-element format
// markers (POM, owner-change histories). The CmdDigest field of a batched
// SPECORDER holds the batch digest (see BatchDigest); per-command digests
// travel in the per-command SPECREPLYs.
package core

import (
	"errors"
	"math/bits"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// Message type tags reserved by ezBFT (10–29, COMMITFETCH's 66 and the
// compact COMMIT's 67–68; 30–65 belong to the baseline protocols).
const (
	tagRequest          = 10
	tagSpecOrder        = 11
	tagSpecReply        = 12
	tagCommitFast       = 13
	tagCommit           = 14
	tagCommitReply      = 15
	tagResendReq        = 16
	tagStartOwnerChange = 17
	tagOwnerChange      = 18
	tagNewOwner         = 19
	tagPOM              = 20
	// Batched variants (batches of ≥ 2 requests per instance).
	tagSpecOrderBatch  = 21
	tagSpecReplyBatch  = 22
	tagCommitFastBatch = 23
	tagCommitBatch     = 24
	tagPOMBatch        = 25
	// A COMMIT whose certificate is one reply plus the other signers'
	// signatures (unbatched and batched layouts); tags 14 and 24 keep the
	// form that carries every reply whole.
	tagCommitCompact      = 67
	tagCommitCompactBatch = 68
)

// maxBatch bounds the requests decoded per SPECORDER batch.
const maxBatch = 4096

// Embedded-pointer format markers: 0 = absent, 1 = unbatched layout,
// 2 = batched layout. The unbatched values coincide with the booleans the
// pre-batching encoding wrote, keeping batch-of-one frames byte-identical.
const (
	fmtAbsent  = 0
	fmtSingle  = 1
	fmtBatched = 2
)

// A history entry's COMMIT marker is fmtAbsent or names the COMMIT's layout:
// fmtSingle and fmtBatched for the form that carries every reply whole (the
// values the SPECORDER markers use), these two for the compact form.
const (
	fmtCompactSingle  = 3
	fmtCompactBatched = 4
)

// commitMarker returns the history marker for a COMMIT with the given tag.
func commitMarker(tag uint8) uint8 {
	switch tag {
	case tagCommitBatch:
		return fmtBatched
	case tagCommitCompact:
		return fmtCompactSingle
	case tagCommitCompactBatch:
		return fmtCompactBatched
	default:
		return fmtSingle
	}
}

// noOrig marks a Request that is not a retry broadcast.
const noOrig types.ReplicaID = -1

// Request is the client's signed command submission, ⟨REQUEST, L, t, c⟩σc.
// On retry broadcasts (paper step 4.3) Orig names the replica originally
// responsible, so receivers can forward a RESENDREQ to it.
type Request struct {
	Cmd  types.Command
	Orig types.ReplicaID // noOrig unless this is a retry broadcast
	Sig  []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Clone returns a copy safe to take while other nodes' verifier pools may
// still be marking the shared original (retry broadcasts hand one decoded
// Request to every replica on the in-process mesh): the embedded Verified
// flag is re-read atomically instead of plain-copied.
func (m *Request) Clone() Request {
	cp := Request{Cmd: m.Cmd, Orig: m.Orig, Sig: m.Sig}
	if m.SigVerified() {
		cp.MarkSigVerified()
	}
	return cp
}

// Command and SetSignature implement engine.SignedRequest.
func (m *Request) Command() *types.Command { return &m.Cmd }
func (m *Request) SetSignature(sig []byte) { m.Sig = sig }

// Tag implements codec.Message.
func (m *Request) Tag() uint8 { return tagRequest }

// MarshalTo implements codec.Message.
func (m *Request) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Request) MarshalBody(w *codec.Writer) {
	w.Command(m.Cmd)
	w.Int32(int32(m.Orig))
}

func decodeRequest(r *codec.Reader) (*Request, error) {
	m := new(Request)
	return m, decodeRequestInto(r, m)
}

// decodeRequestInto parses a REQUEST into m, which is where messages that
// embed requests by value (SPECORDER, RESENDREQ) want it.
func decodeRequestInto(r *codec.Reader, m *Request) error {
	m.Cmd = r.Command()
	m.Orig = types.ReplicaID(r.Int32())
	m.Sig = r.Blob()
	return r.Err()
}

// SpecOrder is the command-leader's signed ordering proposal,
// ⟨⟨SPECORDER, O, I, D, S, h, d⟩σR, m⟩. With owner-side batching enabled it
// orders a whole batch of requests in one instance: Req is the first request
// and Batch carries the rest; d is then the batch digest, so the one leader
// signature covers every command in the batch.
type SpecOrder struct {
	Owner     types.OwnerNumber // owner number of the leader's instance space
	Inst      types.InstanceID
	Deps      types.InstanceSet
	Seq       types.SeqNumber
	LogHash   types.Digest // h: chained digest of the leader's instance space
	CmdDigest types.Digest // d = H(m) (batch digest for batches of ≥ 2)
	Req       Request      // the embedded client request m (first of the batch)
	Batch     []Request    // requests 2..k of the batch (nil when unbatched)
	Sig       []byte       // leader signature over the body (excluding Req's own signature envelope)

	// Verified marks that the leader signature and every embedded client
	// signature were checked by a transport-side verifier pool (see
	// InboundVerifier); the replica's single-threaded loop then skips those
	// checks. The digest-binding check still runs in-loop. Never marshaled.
	codec.Verified
}

// Tag implements codec.Message.
func (m *SpecOrder) Tag() uint8 {
	if len(m.Batch) > 0 {
		return tagSpecOrderBatch
	}
	return tagSpecOrder
}

// MarshalTo implements codec.Message.
func (m *SpecOrder) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	m.Req.MarshalTo(w)
	if len(m.Batch) > 0 {
		w.Uvarint(uint64(len(m.Batch)))
		for i := range m.Batch {
			m.Batch[i].MarshalTo(w)
		}
	}
}

// BatchSize returns the number of requests this SPECORDER orders.
func (m *SpecOrder) BatchSize() int { return 1 + len(m.Batch) }

// ReqAt returns the i'th request of the batch (0 = Req).
func (m *SpecOrder) ReqAt(i int) *Request {
	if i == 0 {
		return &m.Req
	}
	return &m.Batch[i-1]
}

// OrdersCommand reports whether the SPECORDER's batch embeds cmd. Plain
// byte comparison — no hashing — so clients can gate per-reply checks
// cheaply; cryptographic binding is re-checked where it matters (POM
// validation at the replicas).
func (m *SpecOrder) OrdersCommand(cmd types.Command) bool {
	for i := 0; i < m.BatchSize(); i++ {
		if m.ReqAt(i).Cmd.Equal(cmd) {
			return true
		}
	}
	return false
}

// CmdDigests returns the per-command digests of the batch, in batch order.
func (m *SpecOrder) CmdDigests() []types.Digest {
	out := make([]types.Digest, m.BatchSize())
	for i := range out {
		out[i] = m.ReqAt(i).Cmd.Digest()
	}
	return out
}

// BatchDigest computes the digest d a SPECORDER carries for a batch of
// per-command digests: the single command's digest for a batch of one
// (exactly the unbatched protocol's d = H(m)), or the hash of the
// concatenated per-command digests for larger batches, so one signature
// binds every command and its position. It is the shared engine.BatchDigest
// (every batching protocol binds batches the same way).
func BatchDigest(cmdDigests []types.Digest) types.Digest {
	return engine.BatchDigest(cmdDigests)
}

func (m *SpecOrder) MarshalBody(w *codec.Writer) {
	w.Uvarint(uint64(m.Owner))
	w.Instance(m.Inst)
	w.InstanceSet(m.Deps)
	w.Uvarint(uint64(m.Seq))
	w.Bytes32(m.LogHash)
	w.Bytes32(m.CmdDigest)
}

// decodeEmbeddedSpecOrder parses the SPECORDER a reply or certificate
// embeds, in the layout batched selects. With a memo on the reader it first
// asks the memo for a SPECORDER of that layout whose bytes come next
// (codec.MemoTable.Recall), and otherwise decodes them and hands the memo
// the result, for the other replies that embed it. A standalone SPECORDER
// is not held: a replica meets its bytes again only in a certificate it did
// not sign, and a client gets one only as an SOFETCH answer, for a proposal
// no reply it holds embeds.
func decodeEmbeddedSpecOrder(r *codec.Reader, batched bool) (*SpecOrder, error) {
	memo := r.Memo()
	if memo == nil {
		return decodeSpecOrder(r, batched)
	}
	tag := uint8(tagSpecOrder)
	if batched {
		tag = tagSpecOrderBatch
	}
	if so, ok := memo.Decoded.Recall(r, tag).(*SpecOrder); ok {
		return so, nil
	}
	start := r.Offset()
	so, err := decodeSpecOrder(r, batched)
	if err == nil {
		memo.Decoded.Store(r.Since(start), so)
	}
	return so, err
}

// decodeSpecOrder decodes a SPECORDER; batched selects the tag-21 layout
// with the trailing extra requests.
func decodeSpecOrder(r *codec.Reader, batched bool) (*SpecOrder, error) {
	m := &SpecOrder{
		Owner:     types.OwnerNumber(r.Uvarint()),
		Inst:      r.Instance(),
		Deps:      r.InstanceSet(),
		Seq:       types.SeqNumber(r.Uvarint()),
		LogHash:   r.Bytes32(),
		CmdDigest: r.Bytes32(),
	}
	m.Sig = r.Blob()
	if err := decodeRequestInto(r, &m.Req); err != nil {
		return nil, err
	}
	if batched {
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Total batch (1+n) is capped at MaxBatchSize, matching what a
		// leader may produce, so decode and verify agree at the boundary.
		if n == 0 || n > maxBatch-2 {
			return nil, codec.ErrOverflow
		}
		m.Batch = make([]Request, n)
		for i := range m.Batch {
			if err := decodeRequestInto(r, &m.Batch[i]); err != nil {
				return nil, err
			}
		}
	}
	return m, r.Err()
}

// SpecReply is a replica's signed answer to the client,
// ⟨⟨SPECREPLY, O, I, D′, S′, d, c, t⟩σR, R, rep, SO⟩. For batched instances
// a replica sends one SPECREPLY per command, each naming the command's
// position in the batch (BatchIdx) and carrying the per-command digest in
// CmdDigest, so every client correlates and validates its own command.
//
// Evidence slimming: only the BatchIdx-0 reply of a batched instance embeds
// the full SPECORDER; the rest carry SORef — the batch digest of the
// proposal they vouch for — inside their signed body. Reply traffic is then
// O(k) instead of O(k²) request bytes per replica per batch, while replies
// built from different proposals still can never be combined (SORef takes
// part in Matches and in certificate validation) and any client holding two
// full SPECORDERs can still prove equivocation. Unbatched replies always
// embed the SPECORDER, byte-for-byte the paper's protocol.
type SpecReply struct {
	Owner     types.OwnerNumber
	Inst      types.InstanceID
	Deps      types.InstanceSet // D′: updated dependency set
	Seq       types.SeqNumber   // S′: updated sequence number
	CmdDigest types.Digest
	Client    types.ClientID
	Timestamp uint64
	Replica   types.ReplicaID
	Result    types.Result // rep: the speculative execution result
	Batched   bool         // true when the instance orders a batch of ≥ 2
	BatchIdx  uint32       // position of the command within the batch
	SORef     types.Digest // batch digest of the proposal (batched replies only)
	SO        *SpecOrder   // the embedded SPECORDER (BatchIdx 0 and unbatched replies)
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *SpecReply) Tag() uint8 {
	if m.Batched {
		return tagSpecReplyBatch
	}
	return tagSpecReply
}

// MarshalTo implements codec.Message.
func (m *SpecReply) MarshalTo(w *codec.Writer) {
	m.marshalSigned(w)
	marshalSpecOrderPtr(w, m.SO)
}

// KeepWhenSent implements codec.KeptWhenSent: the client's certificate
// brings every replica that signed a reply that very reply back
// (CommitFast.MarshalFor), so the replica's transport keeps what it sends.
func (m *SpecReply) KeepWhenSent() {}

// marshalSigned writes the signed body and the signature without the
// SPECORDER riding along: the form of every COMMIT certificate element after
// the first.
func (m *SpecReply) marshalSigned(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *SpecReply) MarshalBody(w *codec.Writer) { m.marshalBodyAs(w, m.Replica) }

// marshalBodyAs writes the signed body with signer in the Replica field: the
// bytes that replica signs when it sends this same reply, which is what the
// other signers of a COMMITFAST vouch for without the reply being copied.
func (m *SpecReply) marshalBodyAs(w *codec.Writer, signer types.ReplicaID) {
	w.Uvarint(uint64(m.Owner))
	w.Instance(m.Inst)
	w.InstanceSet(m.Deps)
	w.Uvarint(uint64(m.Seq))
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Client))
	w.Uvarint(m.Timestamp)
	w.Int32(int32(signer))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
	if m.Batched {
		// The batch index and proposal reference are part of the signed
		// body: a reply for one command of a batch cannot be replayed as a
		// reply for another, and a reply built from one proposal cannot be
		// passed off as vouching for a different batch at the same instance.
		w.Uvarint(uint64(m.BatchIdx))
		w.Bytes32(m.SORef)
	}
}

// ProposalRef returns the digest of the proposal this reply vouches for:
// the embedded SPECORDER's batch digest when present, the signed SORef
// otherwise.
func (m *SpecReply) ProposalRef() types.Digest {
	if m.SO != nil {
		return m.SO.CmdDigest
	}
	return m.SORef
}

// marshalSpecOrderPtr encodes an optional embedded SPECORDER with a format
// marker byte (absent / unbatched / batched). The unbatched markers match
// the boolean the pre-batching layout wrote.
func marshalSpecOrderPtr(w *codec.Writer, so *SpecOrder) {
	switch {
	case so == nil:
		w.Uint8(fmtAbsent)
	case len(so.Batch) > 0:
		w.Uint8(fmtBatched)
		so.MarshalTo(w)
	default:
		w.Uint8(fmtSingle)
		so.MarshalTo(w)
	}
}

// decodeSpecOrderPtr parses the counterpart of marshalSpecOrderPtr.
func decodeSpecOrderPtr(r *codec.Reader) (*SpecOrder, error) {
	switch marker := r.Uint8(); marker {
	case fmtAbsent:
		return nil, r.Err()
	case fmtSingle:
		return decodeEmbeddedSpecOrder(r, false)
	case fmtBatched:
		return decodeEmbeddedSpecOrder(r, true)
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, codec.ErrUnknownType
	}
}

// Matches reports whether two replies agree on every field the client
// compares for the fast-path decision (paper step 4.1): O, I, D′, S′, c, t,
// and rep (plus the batch position, which is fixed per command anyway).
func (m *SpecReply) Matches(o *SpecReply) bool {
	return m.Owner == o.Owner &&
		m.Inst == o.Inst &&
		m.Seq == o.Seq &&
		m.CmdDigest == o.CmdDigest &&
		m.Client == o.Client &&
		m.Timestamp == o.Timestamp &&
		m.Batched == o.Batched &&
		m.BatchIdx == o.BatchIdx &&
		m.SORef == o.SORef &&
		m.Result.Equal(o.Result) &&
		m.Deps.Equal(o.Deps)
}

// decodeSpecReplyFmt parses either SPECREPLY layout; withSO is false for the
// COMMIT certificate elements that travel without SPECORDER (marshalSigned).
func decodeSpecReplyFmt(r *codec.Reader, batched, withSO bool) (*SpecReply, error) {
	m := &SpecReply{
		Owner:     types.OwnerNumber(r.Uvarint()),
		Inst:      r.Instance(),
		Deps:      r.InstanceSet(),
		Seq:       types.SeqNumber(r.Uvarint()),
		CmdDigest: r.Bytes32(),
		Client:    types.ClientID(r.Int32()),
		Timestamp: r.Uvarint(),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Result.OK = r.Bool()
	m.Result.Value = r.Blob()
	if batched {
		m.Batched = true
		idx := r.Uvarint()
		if idx >= maxBatch {
			return nil, codec.ErrOverflow
		}
		m.BatchIdx = uint32(idx)
		m.SORef = r.Bytes32()
	}
	m.Sig = r.Blob()
	if withSO {
		so, err := decodeSpecOrderPtr(r)
		if err != nil {
			return nil, err
		}
		m.SO = so
	}
	return m, r.Err()
}

// decodeCarriedReply parses the reply a certificate carries with its
// SPECORDER: a COMMITFAST's, or a COMMIT's first. The client sends each
// replica that signed it the reply that replica sent (CommitFast.MarshalFor),
// which the replica's transport keeps in its memo, so with a memo on the
// reader it first asks the memo for a sent reply of that layout whose bytes
// come next (codec.MemoTable.Recall); otherwise, or on a miss, it decodes
// them.
func decodeCarriedReply(r *codec.Reader, batched bool) (*SpecReply, error) {
	if memo := r.Memo(); memo != nil {
		tag := uint8(tagSpecReply)
		if batched {
			tag = tagSpecReplyBatch
		}
		if sr, ok := memo.Sent.Recall(r, tag).(*SpecReply); ok {
			return sr, nil
		}
	}
	return decodeSpecReplyFmt(r, batched, true)
}

// maxSigners bounds the replicas a certificate can name, and with them the
// cluster size: engine.ReplicaSet is one machine word.
const maxSigners = engine.MaxReplicas

// ReplySig is one more signer of a compact certificate's reply: Replica's
// signature over that reply's body with its own id in the Replica field.
type ReplySig struct {
	Replica types.ReplicaID
	Sig     []byte
}

// CommitFast is the client's asynchronous fast-path commit announcement,
// ⟨COMMITFAST, c, I, CC⟩. The paper's CC is 3f+1 matching SPECREPLYs, which
// by definition differ only in sender and signature, so the message carries
// the reply once and the other senders as (replica, signature) pairs. Over
// TCP the carried reply is the recipient's own: every replica signed one,
// and MarshalFor writes the certificate around it.
type CommitFast struct {
	Client types.ClientID
	Inst   types.InstanceID
	Cert   []*SpecReply // exactly one element: the reply every signer sent
	Sigs   []ReplySig   // the other 3f signers of that reply

	codec.Verified // the reply's and every Sigs signature checked; never marshaled
}

// Tag implements codec.Message.
func (m *CommitFast) Tag() uint8 {
	if certBatched(m.Cert) {
		return tagCommitFastBatch
	}
	return tagCommitFast
}

// certBatched reports whether a certificate's replies use the batched
// layout. Certificates are homogeneous: every reply vouches for the same
// command of the same instance.
func certBatched(cert []*SpecReply) bool { return len(cert) > 0 && cert[0].Batched }

// MarshalTo implements codec.Message. Only a well-formed message (one Cert
// element) has an encoding.
func (m *CommitFast) MarshalTo(w *codec.Writer) {
	w.Int32(int32(m.Client))
	w.Instance(m.Inst)
	m.Cert[0].MarshalTo(w)
	marshalSigs(w, m.Sigs)
}

// MarshalFor implements codec.Tailored: MarshalTo's encoding with the
// carried reply the one replica to sent (marshalCompactAs).
func (m *CommitFast) MarshalFor(w *codec.Writer, to types.NodeID) {
	if !to.IsReplica() {
		m.MarshalTo(w)
		return
	}
	w.Int32(int32(m.Client))
	w.Instance(m.Inst)
	marshalCompactAs(w, m.Cert[0], m.Sigs, to.Replica())
}

// marshalCompactAs writes a compact certificate — the reply first, then the
// signer pairs sigs — with the reply lead signed carried: first's body with
// lead in the Replica field and lead's signature, which is byte for byte the
// reply lead sent (matching replies differ only in signer and signature),
// with first's SPECORDER, and then the other signers in replica order. Where
// lead signed nothing, or the signers are not distinct replicas (no valid
// certificate to rewrite), it writes the certificate as it is.
func marshalCompactAs(w *codec.Writer, first *SpecReply, sigs []ReplySig, lead types.ReplicaID) {
	var signers engine.ReplicaSet
	ok := signers.Add(first.Replica, maxSigners)
	for _, s := range sigs {
		ok = signers.Add(s.Replica, maxSigners) && ok
	}
	if !ok || lead < 0 || lead >= maxSigners || !signers.Has(lead) {
		first.MarshalTo(w)
		marshalSigs(w, sigs)
		return
	}
	first.marshalBodyAs(w, lead)
	w.Blob(signatureOf(first, sigs, lead))
	marshalSpecOrderPtr(w, first.SO)
	w.Uvarint(uint64(len(sigs)))
	for set := signers &^ (1 << lead); set != 0; set &= set - 1 {
		id := types.ReplicaID(bits.TrailingZeros64(uint64(set)))
		w.Int32(int32(id))
		w.Blob(signatureOf(first, sigs, id))
	}
}

// signatureOf returns signer id's signature in a compact certificate.
func signatureOf(first *SpecReply, sigs []ReplySig, id types.ReplicaID) []byte {
	if id == first.Replica {
		return first.Sig
	}
	for _, s := range sigs {
		if s.Replica == id {
			return s.Sig
		}
	}
	return nil
}

// certificate returns the replies and signer pairs the message carries.
func (m *CommitFast) certificate() ([]*SpecReply, []ReplySig) { return m.Cert, m.Sigs }

func decodeCommitFast(r *codec.Reader, batched bool) (*CommitFast, error) {
	m := &CommitFast{
		Client: types.ClientID(r.Int32()),
		Inst:   r.Instance(),
	}
	sr, err := decodeCarriedReply(r, batched)
	if err != nil {
		return nil, err
	}
	m.Cert = []*SpecReply{sr}
	if m.Sigs, err = decodeSigs(r); err != nil {
		return nil, err
	}
	return m, r.Err()
}

// marshalSigs writes a compact certificate's signer pairs.
func marshalSigs(w *codec.Writer, sigs []ReplySig) {
	w.Uvarint(uint64(len(sigs)))
	for _, s := range sigs {
		w.Int32(int32(s.Replica))
		w.Blob(s.Sig)
	}
}

// decodeSigs parses the counterpart of marshalSigs.
func decodeSigs(r *codec.Reader) ([]ReplySig, error) {
	n := r.Uvarint() // 0 after a read error, which r.Err() below reports
	if n > maxSigners {
		return nil, codec.ErrOverflow
	}
	sigs := make([]ReplySig, n)
	for i := range sigs {
		sigs[i] = ReplySig{Replica: types.ReplicaID(r.Int32()), Sig: r.Blob()}
	}
	return sigs, r.Err()
}

// decodeCert parses a COMMIT's certificate; every element uses the layout
// the message's tag selects, and only the first has a SPECORDER. A
// certificate of no replies is refused: it proves nothing, and its layout
// would not survive a re-marshal.
func decodeCert(r *codec.Reader, batched bool) ([]*SpecReply, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errCertShape
	}
	if n > maxSigners {
		return nil, codec.ErrOverflow
	}
	first, err := decodeCarriedReply(r, batched)
	if err != nil {
		return nil, err
	}
	cert := make([]*SpecReply, 1, n)
	cert[0] = first
	for i := uint64(1); i < n; i++ {
		sr, err := decodeSpecReplyFmt(r, batched, false)
		if err != nil {
			return nil, err
		}
		cert = append(cert, sr)
	}
	return cert, nil
}

// Commit is the client's signed slow-path commit,
// ⟨COMMIT, c, I, D′, S′, CC⟩σc with CC = 2f+1 SPECREPLY messages. When the
// replies agree, CC travels as a COMMITFAST's does: Cert holds the one reply
// (with its SPECORDER) and Sigs the other signers' signatures over its body
// (tags 67 and 68). Otherwise Cert holds every reply and Sigs is empty (tags
// 14 and 24); only Cert[0]'s SPECORDER travels then. Over TCP the compact
// form's reply is the recipient's own where it signed one (MarshalFor).
type Commit struct {
	Client    types.ClientID
	Timestamp uint64
	Inst      types.InstanceID
	Deps      types.InstanceSet // final combined dependency set
	Seq       types.SeqNumber   // final sequence number
	Cert      []*SpecReply      // only Cert[0]'s SPECORDER travels (MarshalTo)
	Sigs      []ReplySig        // compact form: the other signers of Cert[0]
	Sig       []byte

	// Verified marks the client signature and every certificate signature
	// checked; never marshaled.
	codec.Verified
}

// Tag implements codec.Message.
func (m *Commit) Tag() uint8 {
	switch batched := certBatched(m.Cert); {
	case len(m.Sigs) > 0 && batched:
		return tagCommitCompactBatch
	case len(m.Sigs) > 0:
		return tagCommitCompact
	case batched:
		return tagCommitBatch
	default:
		return tagCommit
	}
}

// certificate returns the replies and signer pairs the message carries.
func (m *Commit) certificate() ([]*SpecReply, []ReplySig) { return m.Cert, m.Sigs }

// MarshalTo implements codec.Message. The compact form is the full form of
// its one reply followed by the signer pairs; only a well-formed compact
// message (one Cert element) has an encoding.
func (m *Commit) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	// Replies that differ in dependencies or sequence number travel whole,
	// but all vouch for one proposal: only the first carries the
	// SPECORDER, which is the one replicas install from.
	w.Uvarint(uint64(len(m.Cert)))
	for i, sr := range m.Cert {
		if i == 0 {
			sr.MarshalTo(w)
		} else {
			sr.marshalSigned(w)
		}
	}
	if len(m.Sigs) > 0 {
		marshalSigs(w, m.Sigs)
	}
}

// MarshalFor implements codec.Tailored: a compact COMMIT carries the reply
// replica to sent, as a COMMITFAST does (marshalCompactAs). The full form,
// whose replies disagree, is written as MarshalTo writes it for everyone.
// The client's signature covers neither the certificate nor its order.
func (m *Commit) MarshalFor(w *codec.Writer, to types.NodeID) {
	if len(m.Sigs) == 0 || len(m.Cert) != 1 || !to.IsReplica() {
		m.MarshalTo(w)
		return
	}
	m.marshalCompactAs(w, to.Replica())
}

// marshalCanonical writes the encoding a replica stores for the commit (a
// log record, a catch-up suffix, an owner-change history): MarshalTo's,
// with a compact certificate in the one form its signer set determines —
// the lowest signer's reply carried, the others in replica order — so that
// replicas sent the certificate tailored each to itself store the same
// bytes, which catch-up compares across responders (histEntryEqual).
func (m *Commit) marshalCanonical(w *codec.Writer) {
	if len(m.Sigs) == 0 || len(m.Cert) != 1 {
		m.MarshalTo(w)
		return
	}
	lowest := m.Cert[0].Replica
	for _, s := range m.Sigs {
		lowest = min(lowest, s.Replica)
	}
	m.marshalCompactAs(w, lowest)
}

// marshalCompactAs writes a compact COMMIT with lead's reply carried.
func (m *Commit) marshalCompactAs(w *codec.Writer, lead types.ReplicaID) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	w.Uvarint(1)
	marshalCompactAs(w, m.Cert[0], m.Sigs, lead)
}

func (m *Commit) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Client))
	w.Uvarint(m.Timestamp)
	w.Instance(m.Inst)
	w.InstanceSet(m.Deps)
	w.Uvarint(uint64(m.Seq))
}

// errCertShape rejects a COMMIT frame with no reply, or a compact one
// without exactly one reply and at least one more signer.
var errCertShape = errors.New("core: COMMIT certificate of the wrong shape")

func decodeCommit(r *codec.Reader, batched, compact bool) (*Commit, error) {
	m := &Commit{
		Client:    types.ClientID(r.Int32()),
		Timestamp: r.Uvarint(),
		Inst:      r.Instance(),
		Deps:      r.InstanceSet(),
		Seq:       types.SeqNumber(r.Uvarint()),
	}
	m.Sig = r.Blob()
	cert, err := decodeCert(r, batched)
	if err != nil {
		return nil, err
	}
	m.Cert = cert
	if compact {
		if len(cert) != 1 {
			return nil, errCertShape
		}
		if m.Sigs, err = decodeSigs(r); err != nil {
			return nil, err
		}
		if len(m.Sigs) == 0 {
			return nil, errCertShape
		}
	}
	return m, r.Err()
}

// CommitReply carries the final-execution result to the client,
// ⟨COMMITREPLY, L, rep⟩.
type CommitReply struct {
	Inst      types.InstanceID
	CmdDigest types.Digest
	Replica   types.ReplicaID
	Result    types.Result
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *CommitReply) Tag() uint8 { return tagCommitReply }

// MarshalTo implements codec.Message.
func (m *CommitReply) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *CommitReply) MarshalBody(w *codec.Writer) {
	w.Instance(m.Inst)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Replica))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
}

func decodeCommitReply(r *codec.Reader) (*CommitReply, error) {
	m := &CommitReply{
		Inst:      r.Instance(),
		CmdDigest: r.Bytes32(),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Result.OK = r.Bool()
	m.Result.Value = r.Blob()
	m.Sig = r.Blob()
	return m, r.Err()
}

// ResendReq asks the original command-leader to (re-)order a request whose
// client timed out, ⟨RESENDREQ, m, R⟩ (paper step 4.3).
type ResendReq struct {
	Req     Request
	Replica types.ReplicaID // forwarding replica
}

// Tag implements codec.Message.
func (m *ResendReq) Tag() uint8 { return tagResendReq }

// MarshalTo implements codec.Message.
func (m *ResendReq) MarshalTo(w *codec.Writer) {
	m.Req.MarshalTo(w)
	w.Int32(int32(m.Replica))
}

func decodeResendReq(r *codec.Reader) (*ResendReq, error) {
	m := new(ResendReq)
	if err := decodeRequestInto(r, &m.Req); err != nil {
		return nil, err
	}
	m.Replica = types.ReplicaID(r.Int32())
	return m, r.Err()
}

// StartOwnerChange announces a replica's commitment to change the owner of
// a suspect's instance space, ⟨STARTOWNERCHANGE, Ri, ORi⟩.
type StartOwnerChange struct {
	Suspect types.ReplicaID
	Owner   types.OwnerNumber // the owner number being abandoned
	Replica types.ReplicaID   // sender
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *StartOwnerChange) Tag() uint8 { return tagStartOwnerChange }

// MarshalTo implements codec.Message.
func (m *StartOwnerChange) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *StartOwnerChange) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Suspect))
	w.Uvarint(uint64(m.Owner))
	w.Int32(int32(m.Replica))
}

func decodeStartOwnerChange(r *codec.Reader) (*StartOwnerChange, error) {
	m := &StartOwnerChange{
		Suspect: types.ReplicaID(r.Int32()),
		Owner:   types.OwnerNumber(r.Uvarint()),
		Replica: types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// HistStatus describes an entry's status inside an owner-change history.
type HistStatus uint8

// History entry statuses.
const (
	HistSpecOrdered HistStatus = iota + 1
	HistCommitted
	// HistExecuted marks a finally executed entry inside a state-transfer
	// suffix (see checkpoint.go); it never appears in owner-change traffic.
	HistExecuted
)

// histBatchFlag marks a history entry that carries a batch of commands; it
// is OR'ed into the status byte on the wire so unbatched entries keep the
// pre-batching layout.
const histBatchFlag = 0x80

// HistEntry is one instance of the suspect's space as reported in an
// OWNERCHANGE message, with the proof backing it: the leader-signed
// SPECORDER for spec-ordered (and fast-committed) entries, and the
// client-signed COMMIT for slow-committed entries. Batched instances are
// reported — and recovered — whole: Cmd is the first command of the batch
// and Batch carries the rest, so an owner change can never split a batch.
type HistEntry struct {
	Inst         types.InstanceID
	Status       HistStatus
	Cmd          types.Command
	Batch        []types.Command // commands 2..k of a batched instance
	Deps         types.InstanceSet
	Seq          types.SeqNumber
	Owner        types.OwnerNumber
	SO           *SpecOrder // proof for HistSpecOrdered (may be nil for locally derived entries)
	ClientCommit *Commit    // proof for HistCommitted via slow path (nil for fast commits)
}

func (h *HistEntry) marshalTo(w *codec.Writer) {
	w.Instance(h.Inst)
	status := uint8(h.Status)
	if len(h.Batch) > 0 {
		status |= histBatchFlag
	}
	w.Uint8(status)
	w.Command(h.Cmd)
	w.InstanceSet(h.Deps)
	w.Uvarint(uint64(h.Seq))
	w.Uvarint(uint64(h.Owner))
	marshalSpecOrderPtr(w, h.SO)
	if h.ClientCommit == nil {
		w.Uint8(fmtAbsent)
	} else {
		w.Uint8(commitMarker(h.ClientCommit.Tag()))
		h.ClientCommit.marshalCanonical(w)
	}
	if len(h.Batch) > 0 {
		w.Uvarint(uint64(len(h.Batch)))
		for _, cmd := range h.Batch {
			w.Command(cmd)
		}
	}
}

func decodeHistEntry(r *codec.Reader) (HistEntry, error) {
	h := HistEntry{Inst: r.Instance()}
	status := r.Uint8()
	batched := status&histBatchFlag != 0
	h.Status = HistStatus(status &^ histBatchFlag)
	h.Cmd = r.Command()
	h.Deps = r.InstanceSet()
	h.Seq = types.SeqNumber(r.Uvarint())
	h.Owner = types.OwnerNumber(r.Uvarint())
	so, err := decodeSpecOrderPtr(r)
	if err != nil {
		return h, err
	}
	h.SO = so
	switch marker := r.Uint8(); marker {
	case fmtAbsent:
	case fmtSingle, fmtBatched, fmtCompactSingle, fmtCompactBatched:
		c, err := decodeCommit(r, marker == fmtBatched || marker == fmtCompactBatched,
			marker >= fmtCompactSingle)
		if err != nil {
			return h, err
		}
		h.ClientCommit = c
	default:
		if err := r.Err(); err != nil {
			return h, err
		}
		return h, codec.ErrUnknownType
	}
	if batched {
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return h, err
		}
		// Same total-batch cap as decodeSpecOrder (1+n ≤ MaxBatchSize).
		if n == 0 || n > maxBatch-2 {
			return h, codec.ErrOverflow
		}
		h.Batch = make([]types.Command, 0, n)
		for i := uint64(0); i < n; i++ {
			h.Batch = append(h.Batch, r.Command())
		}
	}
	return h, r.Err()
}

// BatchSize returns the number of commands the entry carries.
func (h *HistEntry) BatchSize() int { return 1 + len(h.Batch) }

// CmdAt returns the i'th command of the entry (0 = Cmd).
func (h *HistEntry) CmdAt(i int) types.Command {
	if i == 0 {
		return h.Cmd
	}
	return h.Batch[i-1]
}

// OwnerChange carries a replica's view of the suspect's instance space to
// the prospective new owner, ⟨OWNERCHANGE⟩: its stable checkpoint of the
// space (Mark, Digest, proved by 2f+1 CHECKPOINT votes; Mark 0 when it has
// none) and every entry above that mark it holds, with each entry's proof.
type OwnerChange struct {
	Suspect  types.ReplicaID
	NewOwner types.OwnerNumber
	Replica  types.ReplicaID // sender
	Mark     uint64
	Digest   types.Digest
	Votes    []*CheckpointMsg
	History  []HistEntry
	Sig      []byte

	// Verified marks the sender signature checked (history proofs are
	// validated selectively in-loop); never marshaled.
	codec.Verified
}

// Decode bounds: the entries one history reports (and the slots above its
// base an owner change plans) and the CHECKPOINT votes of one stable mark.
const (
	maxHistory   = 1 << 16
	maxCkptVotes = 64
)

// Tag implements codec.Message.
func (m *OwnerChange) Tag() uint8 { return tagOwnerChange }

// MarshalTo implements codec.Message.
func (m *OwnerChange) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *OwnerChange) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Suspect))
	w.Uvarint(uint64(m.NewOwner))
	w.Int32(int32(m.Replica))
	w.Uvarint(m.Mark)
	w.Bytes32(m.Digest)
	w.Uvarint(uint64(len(m.Votes)))
	for _, v := range m.Votes {
		v.MarshalTo(w)
	}
	w.Uvarint(uint64(len(m.History)))
	for i := range m.History {
		m.History[i].marshalTo(w)
	}
}

func decodeOwnerChange(r *codec.Reader) (*OwnerChange, error) {
	m := &OwnerChange{
		Suspect:  types.ReplicaID(r.Int32()),
		NewOwner: types.OwnerNumber(r.Uvarint()),
		Replica:  types.ReplicaID(r.Int32()),
		Mark:     r.Uvarint(),
		Digest:   r.Bytes32(),
	}
	nv := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nv > maxCkptVotes {
		return nil, codec.ErrOverflow
	}
	m.Votes = make([]*CheckpointMsg, 0, nv)
	for i := uint64(0); i < nv; i++ {
		v, err := decodeCheckpoint(r)
		if err != nil {
			return nil, err
		}
		m.Votes = append(m.Votes, v)
	}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxHistory {
		return nil, codec.ErrOverflow
	}
	m.History = make([]HistEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		h, err := decodeHistEntry(r)
		if err != nil {
			return nil, err
		}
		m.History = append(m.History, h)
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// NewOwnerMsg announces the new owner of a frozen instance space with the
// proof P, the 2f+1 OWNERCHANGE messages it gathered, ⟨NEWOWNER⟩. It carries
// no safe set: every replica derives G from P itself (adoptOwnerChange).
type NewOwnerMsg struct {
	Suspect     types.ReplicaID
	NewOwnerNum types.OwnerNumber
	Replica     types.ReplicaID // the new owner
	Proof       []*OwnerChange
	Sig         []byte

	// Verified marks the new owner's signature checked (each proof element
	// carries its own marker); never marshaled.
	codec.Verified
}

// Tag implements codec.Message.
func (m *NewOwnerMsg) Tag() uint8 { return tagNewOwner }

// MarshalTo implements codec.Message.
func (m *NewOwnerMsg) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	w.Uvarint(uint64(len(m.Proof)))
	for _, oc := range m.Proof {
		oc.MarshalTo(w)
	}
}

func (m *NewOwnerMsg) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Suspect))
	w.Uvarint(uint64(m.NewOwnerNum))
	w.Int32(int32(m.Replica))
}

func decodeNewOwner(r *codec.Reader) (*NewOwnerMsg, error) {
	m := &NewOwnerMsg{
		Suspect:     types.ReplicaID(r.Int32()),
		NewOwnerNum: types.OwnerNumber(r.Uvarint()),
		Replica:     types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	np := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if np > 64 {
		return nil, codec.ErrOverflow
	}
	m.Proof = make([]*OwnerChange, 0, np)
	for i := uint64(0); i < np; i++ {
		oc, err := decodeOwnerChange(r)
		if err != nil {
			return nil, err
		}
		m.Proof = append(m.Proof, oc)
	}
	return m, r.Err()
}

// POM is the client's proof of misbehaviour against a command-leader: two
// SPECORDER messages signed by the same owner that order the same request
// at different instances (paper step 4.4).
type POM struct {
	Suspect types.ReplicaID
	Owner   types.OwnerNumber
	Client  types.ClientID
	A, B    *SpecOrder

	// Verified marks both embedded SPECORDER signatures checked against the
	// accused owner; never marshaled.
	codec.Verified
}

// Tag implements codec.Message.
func (m *POM) Tag() uint8 {
	if (m.A != nil && len(m.A.Batch) > 0) || (m.B != nil && len(m.B.Batch) > 0) {
		return tagPOMBatch
	}
	return tagPOM
}

// MarshalTo implements codec.Message.
func (m *POM) MarshalTo(w *codec.Writer) {
	w.Int32(int32(m.Suspect))
	w.Uvarint(uint64(m.Owner))
	w.Int32(int32(m.Client))
	if m.Tag() == tagPOMBatch {
		// A and B may mix layouts (an equivocating leader can sign one
		// batched and one unbatched SPECORDER), so each carries a marker.
		marshalSpecOrderPtr(w, m.A)
		marshalSpecOrderPtr(w, m.B)
		return
	}
	m.A.MarshalTo(w)
	m.B.MarshalTo(w)
}

func decodePOM(r *codec.Reader, batched bool) (*POM, error) {
	m := &POM{
		Suspect: types.ReplicaID(r.Int32()),
		Owner:   types.OwnerNumber(r.Uvarint()),
		Client:  types.ClientID(r.Int32()),
	}
	var a, b *SpecOrder
	var err error
	if batched {
		if a, err = decodeSpecOrderPtr(r); err != nil {
			return nil, err
		}
		if b, err = decodeSpecOrderPtr(r); err != nil {
			return nil, err
		}
	} else {
		if a, err = decodeSpecOrder(r, false); err != nil {
			return nil, err
		}
		if b, err = decodeSpecOrder(r, false); err != nil {
			return nil, err
		}
	}
	m.A, m.B = a, b
	return m, r.Err()
}

func init() {
	codec.Register(tagRequest, "ezbft.Request", func(r *codec.Reader) (codec.Message, error) { return decodeRequest(r) })
	codec.Register(tagSpecOrder, "ezbft.SpecOrder", func(r *codec.Reader) (codec.Message, error) { return decodeSpecOrder(r, false) })
	codec.Register(tagSpecReply, "ezbft.SpecReply", func(r *codec.Reader) (codec.Message, error) { return decodeSpecReplyFmt(r, false, true) })
	codec.Register(tagCommitFast, "ezbft.CommitFast", func(r *codec.Reader) (codec.Message, error) { return decodeCommitFast(r, false) })
	codec.Register(tagCommit, "ezbft.Commit", func(r *codec.Reader) (codec.Message, error) { return decodeCommit(r, false, false) })
	codec.Register(tagCommitReply, "ezbft.CommitReply", func(r *codec.Reader) (codec.Message, error) { return decodeCommitReply(r) })
	codec.Register(tagResendReq, "ezbft.ResendReq", func(r *codec.Reader) (codec.Message, error) { return decodeResendReq(r) })
	codec.Register(tagStartOwnerChange, "ezbft.StartOwnerChange", func(r *codec.Reader) (codec.Message, error) { return decodeStartOwnerChange(r) })
	codec.Register(tagOwnerChange, "ezbft.OwnerChange", func(r *codec.Reader) (codec.Message, error) { return decodeOwnerChange(r) })
	codec.Register(tagNewOwner, "ezbft.NewOwner", func(r *codec.Reader) (codec.Message, error) { return decodeNewOwner(r) })
	codec.Register(tagPOM, "ezbft.POM", func(r *codec.Reader) (codec.Message, error) { return decodePOM(r, false) })
	codec.Register(tagSpecOrderBatch, "ezbft.SpecOrderB", func(r *codec.Reader) (codec.Message, error) { return decodeSpecOrder(r, true) })
	codec.Register(tagSpecReplyBatch, "ezbft.SpecReplyB", func(r *codec.Reader) (codec.Message, error) { return decodeSpecReplyFmt(r, true, true) })
	codec.Register(tagCommitFastBatch, "ezbft.CommitFastB", func(r *codec.Reader) (codec.Message, error) { return decodeCommitFast(r, true) })
	codec.Register(tagCommitBatch, "ezbft.CommitB", func(r *codec.Reader) (codec.Message, error) { return decodeCommit(r, true, false) })
	codec.Register(tagCommitCompact, "ezbft.CommitC", func(r *codec.Reader) (codec.Message, error) { return decodeCommit(r, false, true) })
	codec.Register(tagCommitCompactBatch, "ezbft.CommitCB", func(r *codec.Reader) (codec.Message, error) { return decodeCommit(r, true, true) })
	codec.Register(tagPOMBatch, "ezbft.POMB", func(r *codec.Reader) (codec.Message, error) { return decodePOM(r, true) })
}
