// Package zyzzyva implements Zyzzyva (Kotla et al., SOSP 2007), the
// speculative primary-based BFT protocol that is ezBFT's closest
// competitor: the primary assigns a sequence number (ORDERREQ), replicas
// speculatively execute and answer the client directly (SPECRESPONSE), and
// the client completes in three communication steps on 3f+1 matching
// responses, or falls back to a two-extra-step commit-certificate path on
// 2f+1. The paper reimplemented Zyzzyva in its common evaluation framework;
// this package does the same on this repository's substrate.
//
// The view change that deposes a faulty primary is the engine's
// (internal/engine/viewchange.go): a backup whose forwarded request is not
// ordered asks for the next view, a slot's commit certificate is what a
// VIEW-CHANGE proves it with, and a batch f+1 VIEW-CHANGEs report — as any
// batch a client completed on the fast path is — survives into the new
// view.
package zyzzyva

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// Message tags reserved by Zyzzyva (40-49, plus 61-63 and 65 from the
// shared expansion block 60-69; 48, 49 and 65 are the log-lifecycle
// messages in checkpoint.go, 46 and 47 the engine's view-change pair; 45 is
// free).
const (
	tagRequest      = 40
	tagOrderReq     = 41
	tagSpecResponse = 42
	tagCommitCert   = 43
	tagLocalCommit  = 44
	// Batched variants (primary-side batches of ≥ 2 requests); batches of
	// one keep the original tags and their exact byte layouts.
	tagOrderReqBatch     = 61
	tagSpecResponseBatch = 62
	tagCommitCertBatch   = 63
)

// maxBatch bounds the requests decoded per batched ORDERREQ.
const maxBatch = 4096

type requestTag struct{}

func (requestTag) Tag() uint8 { return tagRequest }

// Request is the client's signed command submission (the engine's shared
// shape).
type Request = engine.Request[requestTag]

// viewTags are Zyzzyva's view-change tags: a VIEW-CHANGE carries ORDERREQs
// and commit certificates' SPECRESPONSEs.
var viewTags = engine.ViewTags{
	ViewChange: 46, NewView: 47,
	Frames: []uint8{tagOrderReq, tagOrderReqBatch}, Votes: []uint8{tagSpecResponse, tagSpecResponseBatch},
}

// OrderReq is the primary's ordering assignment ⟨ORDERREQ, v, n, h, d⟩σp.
// With primary-side batching it assigns one sequence number to a whole
// batch: Req is the first request and Batch carries the rest; d is then
// the batch digest (which also feeds the history chain), so the one
// primary signature covers every command in the batch.
type OrderReq struct {
	View      uint64
	Seq       uint64
	HistHash  types.Digest // chained history digest h_n
	CmdDigest types.Digest // d = H(m) (batch digest for batches of ≥ 2)
	Req       Request
	Batch     []Request // requests 2..k of the batch (nil when unbatched)
	Sig       []byte

	// Verified marks that the primary signature and every embedded client
	// signature were checked by a transport-side verifier pool (see
	// PreVerifier); part of the engine.Frame surface. Never
	// marshaled.
	codec.Verified
}

// Signature implements engine.Frame.
func (m *OrderReq) Signature() []byte { return m.Sig }

// Position implements engine.Frame.
func (m *OrderReq) Position() (uint64, uint64, types.Digest) { return m.View, m.Seq, m.CmdDigest }

// BatchSize returns the number of requests this ORDERREQ assigns.
func (m *OrderReq) BatchSize() int { return 1 + len(m.Batch) }

// ReqAt returns the i'th request of the batch (0 = Req).
func (m *OrderReq) ReqAt(i int) *Request {
	if i == 0 {
		return &m.Req
	}
	return &m.Batch[i-1]
}

// Tag implements codec.Message.
func (m *OrderReq) Tag() uint8 {
	if len(m.Batch) > 0 {
		return tagOrderReqBatch
	}
	return tagOrderReq
}

// MarshalTo implements codec.Message.
func (m *OrderReq) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	m.Req.MarshalTo(w)
	engine.MarshalBatch(w, m.Batch, (*Request).MarshalTo)
}

func (m *OrderReq) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.HistHash)
	w.Bytes32(m.CmdDigest)
}

func decodeOrderReq(r *codec.Reader) (*OrderReq, error) {
	return decodeOrderReqFmt(r, false)
}

// decodeOrderReqFmt parses either ORDERREQ layout; batched selects the
// tag-61 layout with the trailing extra requests.
func decodeOrderReqFmt(r *codec.Reader, batched bool) (*OrderReq, error) {
	m := &OrderReq{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
		HistHash:  r.Bytes32(),
		CmdDigest: r.Bytes32(),
	}
	m.Sig = r.Blob()
	if err := engine.DecodeRequestInto(r, &m.Req); err != nil {
		return nil, err
	}
	if batched {
		var err error
		if m.Batch, err = engine.DecodeBatch(r, maxBatch-2, engine.DecodeRequestInto[requestTag]); err != nil {
			return nil, err
		}
	}
	return m, r.Err()
}

// SpecResponse is a replica's speculative answer to the client. For
// batched instances a replica sends one SPECRESPONSE per command, each
// naming the command's position in the batch (BatchIdx, part of the signed
// body) and carrying the per-command digest in CmdDigest, so every client
// correlates and validates its own command.
type SpecResponse struct {
	View      uint64
	Seq       uint64
	HistHash  types.Digest
	CmdDigest types.Digest // per-command digest
	Client    types.ClientID
	Timestamp uint64
	Replica   types.ReplicaID
	Result    types.Result
	Batched   bool   // true when the sequence number orders a batch of ≥ 2
	BatchIdx  uint32 // position of the command within the batch
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *SpecResponse) Tag() uint8 {
	if m.Batched {
		return tagSpecResponseBatch
	}
	return tagSpecResponse
}

// Voted implements engine.CertVote: a commit certificate's votes are
// SPECRESPONSEs for one command.
func (m *SpecResponse) Voted() (uint64, uint64, types.Digest, types.ReplicaID, []byte) {
	return m.View, m.Seq, m.CmdDigest, m.Replica, m.Sig
}

// MarshalTo implements codec.Message.
func (m *SpecResponse) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *SpecResponse) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.HistHash)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Client))
	w.Uvarint(m.Timestamp)
	w.Int32(int32(m.Replica))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
	if m.Batched {
		// The batch index is part of the signed body: a response for one
		// command of a batch cannot be replayed as a response for another.
		w.Uvarint(uint64(m.BatchIdx))
	}
}

// Matches reports whether two responses agree on every client-compared
// field (view, sequence number, history, digest, batch position, and
// result).
func (m *SpecResponse) Matches(o *SpecResponse) bool {
	return m.View == o.View && m.Seq == o.Seq && m.HistHash == o.HistHash &&
		m.CmdDigest == o.CmdDigest && m.Client == o.Client &&
		m.Timestamp == o.Timestamp && m.Batched == o.Batched &&
		m.BatchIdx == o.BatchIdx && m.Result.Equal(o.Result)
}

func decodeSpecResponse(r *codec.Reader) (*SpecResponse, error) {
	return decodeSpecResponseFmt(r, false)
}

func decodeSpecResponseFmt(r *codec.Reader, batched bool) (*SpecResponse, error) {
	m := &SpecResponse{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
		HistHash:  r.Bytes32(),
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
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// CommitCert is the client's slow-path commit: 2f+1 matching SPECRESPONSEs
// (all vouching for the same command of the same assignment; for batched
// assignments they name the command's batch position).
type CommitCert struct {
	Client    types.ClientID
	Timestamp uint64
	Seq       uint64
	CmdDigest types.Digest
	Cert      []*SpecResponse
}

// certBatched reports whether a certificate's responses use the batched
// layout. Certificates are homogeneous: every response vouches for the
// same command of the same assignment.
func certBatched(cert []*SpecResponse) bool { return len(cert) > 0 && cert[0].Batched }

// Tag implements codec.Message.
func (m *CommitCert) Tag() uint8 {
	if certBatched(m.Cert) {
		return tagCommitCertBatch
	}
	return tagCommitCert
}

// MarshalTo implements codec.Message.
func (m *CommitCert) MarshalTo(w *codec.Writer) {
	w.Int32(int32(m.Client))
	w.Uvarint(m.Timestamp)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
	w.Uvarint(uint64(len(m.Cert)))
	for _, sr := range m.Cert {
		sr.MarshalTo(w)
	}
}

func decodeCommitCert(r *codec.Reader, batched bool) (*CommitCert, error) {
	m := &CommitCert{
		Client:    types.ClientID(r.Int32()),
		Timestamp: r.Uvarint(),
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
	}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > 64 {
		return nil, codec.ErrOverflow
	}
	m.Cert = make([]*SpecResponse, 0, n)
	for i := uint64(0); i < n; i++ {
		sr, err := decodeSpecResponseFmt(r, batched)
		if err != nil {
			return nil, err
		}
		m.Cert = append(m.Cert, sr)
	}
	return m, r.Err()
}

// LocalCommit acknowledges a commit certificate to the client.
type LocalCommit struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest
	Replica   types.ReplicaID
	Result    types.Result
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *LocalCommit) Tag() uint8 { return tagLocalCommit }

// MarshalTo implements codec.Message.
func (m *LocalCommit) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *LocalCommit) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Replica))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
}

func decodeLocalCommit(r *codec.Reader) (*LocalCommit, error) {
	m := &LocalCommit{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Result.OK = r.Bool()
	m.Result.Value = r.Blob()
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	engine.RegisterRequest[requestTag]("zyzzyva")
	codec.Register(tagOrderReq, "zyzzyva.OrderReq", func(r *codec.Reader) (codec.Message, error) { return decodeOrderReq(r) })
	codec.Register(tagSpecResponse, "zyzzyva.SpecResponse", func(r *codec.Reader) (codec.Message, error) { return decodeSpecResponse(r) })
	codec.Register(tagCommitCert, "zyzzyva.CommitCert", func(r *codec.Reader) (codec.Message, error) { return decodeCommitCert(r, false) })
	codec.Register(tagLocalCommit, "zyzzyva.LocalCommit", func(r *codec.Reader) (codec.Message, error) { return decodeLocalCommit(r) })
	engine.RegisterViewMessages("zyzzyva", viewTags, logTags.Checkpoint)
	codec.Register(tagOrderReqBatch, "zyzzyva.OrderReqB", func(r *codec.Reader) (codec.Message, error) { return decodeOrderReqFmt(r, true) })
	codec.Register(tagSpecResponseBatch, "zyzzyva.SpecResponseB", func(r *codec.Reader) (codec.Message, error) { return decodeSpecResponseFmt(r, true) })
	codec.Register(tagCommitCertBatch, "zyzzyva.CommitCertB", func(r *codec.Reader) (codec.Message, error) { return decodeCommitCert(r, true) })
}
