// Package zyzzyva implements Zyzzyva (Kotla et al., SOSP 2007), the
// speculative primary-based BFT protocol that is ezBFT's closest
// competitor: the primary assigns a sequence number (ORDERREQ), replicas
// speculatively execute and answer the client directly (SPECRESPONSE), and
// the client completes in three communication steps on 3f+1 matching
// responses, or falls back to a two-extra-step commit-certificate path on
// 2f+1. The paper reimplemented Zyzzyva in its common evaluation framework;
// this package does the same on this repository's substrate.
//
// View changes are implemented in skeleton form (primary failure detection
// via client retransmission + I-HATE-THE-PRIMARY voting, history carry-over
// from the highest commit certificate): enough to restore progress when the
// primary fails, which is all the paper's experiments exercise.
package zyzzyva

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// Message tags reserved by Zyzzyva (40-49, plus 61-63 and 65 from the
// shared expansion block 60-69; 48, 49 and 65 are the log-lifecycle
// messages in checkpoint.go).
const (
	tagRequest      = 40
	tagOrderReq     = 41
	tagSpecResponse = 42
	tagCommitCert   = 43
	tagLocalCommit  = 44
	tagHatePrimary  = 45
	tagViewChange   = 46
	tagNewView      = 47
	// Batched variants (primary-side batches of ≥ 2 requests); batches of
	// one keep the original tags and their exact byte layouts.
	tagOrderReqBatch     = 61
	tagSpecResponseBatch = 62
	tagCommitCertBatch   = 63
)

// maxBatch bounds the requests decoded per batched ORDERREQ.
const maxBatch = 4096

// Request is the client's signed command submission.
type Request struct {
	Cmd types.Command
	Sig []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Clone returns a copy safe to take while other nodes' verifier pools may
// still be marking the shared original (client retransmissions hand one
// decoded Request to every replica on the in-process mesh): the embedded
// Verified flag is re-read atomically instead of plain-copied.
func (m *Request) Clone() Request {
	cp := Request{Cmd: m.Cmd, Sig: m.Sig}
	if m.SigVerified() {
		cp.MarkSigVerified()
	}
	return cp
}

// Tag implements codec.Message.
func (m *Request) Tag() uint8 { return tagRequest }

// Command, Signature and SetSignature implement engine.ClientRequest.
func (m *Request) Command() *types.Command { return &m.Cmd }
func (m *Request) Signature() []byte       { return m.Sig }
func (m *Request) SetSignature(sig []byte) { m.Sig = sig }

// MarshalTo implements codec.Message.
func (m *Request) MarshalTo(w *codec.Writer) {
	w.Command(m.Cmd)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the client signature covers.
func (m *Request) MarshalBody(w *codec.Writer) {
	w.Command(m.Cmd)
}

func decodeRequest(r *codec.Reader) (*Request, error) {
	m := &Request{}
	return m, decodeRequestInto(r, m)
}

// decodeRequestInto parses a REQUEST into m, which is where messages that
// embed requests by value (ordering batches, catch-up suffixes, WAL records)
// want it.
func decodeRequestInto(r *codec.Reader, m *Request) error {
	m.Cmd = r.Command()
	m.Sig = r.Blob()
	return r.Err()
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
	if err := decodeRequestInto(r, &m.Req); err != nil {
		return nil, err
	}
	if batched {
		var err error
		if m.Batch, err = engine.DecodeBatch(r, maxBatch-2, decodeRequestInto); err != nil {
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

// HatePrimary is a replica's vote to depose the current primary.
type HatePrimary struct {
	View    uint64
	Replica types.ReplicaID
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *HatePrimary) Tag() uint8 { return tagHatePrimary }

// MarshalTo implements codec.Message.
func (m *HatePrimary) MarshalTo(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the replica signature covers.
func (m *HatePrimary) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
}

func decodeHatePrimary(r *codec.Reader) (*HatePrimary, error) {
	m := &HatePrimary{View: r.Uvarint(), Replica: types.ReplicaID(r.Int32())}
	m.Sig = r.Blob()
	return m, r.Err()
}

// ViewChange carries a replica's ordered history to the new primary.
type ViewChange struct {
	NewView uint64
	Replica types.ReplicaID
	// MaxSeq is the highest sequence number this replica holds.
	MaxSeq uint64
	// Entries are the commands ordered since the last stable point.
	Entries []VCEntry
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// VCEntry is one history entry in a view change. Batched assignments are
// carried — and adopted — whole: Cmd is the first command and Extra the
// rest, so a view change can never split a batch.
type VCEntry struct {
	Seq       uint64
	CmdDigest types.Digest // batch digest for batched assignments
	Cmd       types.Command
	Committed bool
	Extra     []types.Command // commands 2..k of a batched assignment
}

// vcBatchFlag marks a batched history entry; it is OR'ed into the
// committed byte on the wire so unbatched entries keep the pre-batching
// layout (Committed encoded as 0 or 1).
const vcBatchFlag = 0x80

func (e *VCEntry) marshalTo(w *codec.Writer) {
	w.Uvarint(e.Seq)
	w.Bytes32(e.CmdDigest)
	w.Command(e.Cmd)
	status := uint8(0)
	if e.Committed {
		status = 1
	}
	if len(e.Extra) > 0 {
		status |= vcBatchFlag
	}
	w.Uint8(status)
	engine.MarshalBatch(w, e.Extra, encodeCommand)
}

func decodeVCEntry(r *codec.Reader) (VCEntry, error) {
	e := VCEntry{
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
		Cmd:       r.Command(),
	}
	status := r.Uint8()
	e.Committed = status&1 != 0
	if status&vcBatchFlag != 0 {
		var err error
		if e.Extra, err = engine.DecodeBatch(r, maxBatch-2, decodeCommandInto); err != nil {
			return e, err
		}
	}
	return e, r.Err()
}

func encodeCommand(c *types.Command, w *codec.Writer) { w.Command(*c) }

func decodeCommandInto(r *codec.Reader, c *types.Command) error {
	*c = r.Command()
	return r.Err()
}

// Cmds returns the entry's full command batch.
func (e *VCEntry) Cmds() []types.Command {
	out := make([]types.Command, 0, 1+len(e.Extra))
	out = append(out, e.Cmd)
	return append(out, e.Extra...)
}

// Tag implements codec.Message.
func (m *ViewChange) Tag() uint8 { return tagViewChange }

// MarshalTo implements codec.Message.
func (m *ViewChange) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *ViewChange) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.NewView)
	w.Int32(int32(m.Replica))
	w.Uvarint(m.MaxSeq)
	w.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].marshalTo(w)
	}
}

func decodeViewChange(r *codec.Reader) (*ViewChange, error) {
	m := &ViewChange{
		NewView: r.Uvarint(),
		Replica: types.ReplicaID(r.Int32()),
		MaxSeq:  r.Uvarint(),
	}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, codec.ErrOverflow
	}
	m.Entries = make([]VCEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		e, err := decodeVCEntry(r)
		if err != nil {
			return nil, err
		}
		m.Entries = append(m.Entries, e)
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// NewView announces the new primary's consolidated history.
type NewView struct {
	View    uint64
	Replica types.ReplicaID
	Entries []VCEntry
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *NewView) Tag() uint8 { return tagNewView }

// MarshalTo implements codec.Message.
func (m *NewView) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *NewView) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].marshalTo(w)
	}
}

func decodeNewView(r *codec.Reader) (*NewView, error) {
	m := &NewView{View: r.Uvarint(), Replica: types.ReplicaID(r.Int32())}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, codec.ErrOverflow
	}
	m.Entries = make([]VCEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		e, err := decodeVCEntry(r)
		if err != nil {
			return nil, err
		}
		m.Entries = append(m.Entries, e)
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	codec.Register(tagRequest, "zyzzyva.Request", func(r *codec.Reader) (codec.Message, error) { return decodeRequest(r) })
	codec.Register(tagOrderReq, "zyzzyva.OrderReq", func(r *codec.Reader) (codec.Message, error) { return decodeOrderReq(r) })
	codec.Register(tagSpecResponse, "zyzzyva.SpecResponse", func(r *codec.Reader) (codec.Message, error) { return decodeSpecResponse(r) })
	codec.Register(tagCommitCert, "zyzzyva.CommitCert", func(r *codec.Reader) (codec.Message, error) { return decodeCommitCert(r, false) })
	codec.Register(tagLocalCommit, "zyzzyva.LocalCommit", func(r *codec.Reader) (codec.Message, error) { return decodeLocalCommit(r) })
	codec.Register(tagHatePrimary, "zyzzyva.HatePrimary", func(r *codec.Reader) (codec.Message, error) { return decodeHatePrimary(r) })
	codec.Register(tagViewChange, "zyzzyva.ViewChange", func(r *codec.Reader) (codec.Message, error) { return decodeViewChange(r) })
	codec.Register(tagNewView, "zyzzyva.NewView", func(r *codec.Reader) (codec.Message, error) { return decodeNewView(r) })
	codec.Register(tagOrderReqBatch, "zyzzyva.OrderReqB", func(r *codec.Reader) (codec.Message, error) { return decodeOrderReqFmt(r, true) })
	codec.Register(tagSpecResponseBatch, "zyzzyva.SpecResponseB", func(r *codec.Reader) (codec.Message, error) { return decodeSpecResponseFmt(r, true) })
	codec.Register(tagCommitCertBatch, "zyzzyva.CommitCertB", func(r *codec.Reader) (codec.Message, error) { return decodeCommitCert(r, true) })
}
