// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI 1999), the baseline three-phase primary-based BFT protocol
// the paper compares against: REQUEST → PRE-PREPARE → PREPARE (all-to-all)
// → COMMIT (all-to-all) → REPLY, five client-visible communication steps.
// Replicas prepare with 2f matching PREPAREs and commit with 2f+1 COMMITs;
// clients accept f+1 matching replies. Checkpoints garbage-collect the log
// and view changes (simplified) restore progress under a faulty primary.
package pbft

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// Message tags reserved by PBFT (30-39, plus 60 from the shared
// batched-baseline block 60-69; 35, 38 and 39 are the log-lifecycle
// messages in checkpoint.go).
const (
	tagRequest    = 30
	tagPrePrepare = 31
	tagPrepare    = 32
	tagCommit     = 33
	tagReply      = 34
	tagViewChange = 36
	tagNewView    = 37
	// tagPrePrepareBatch is the PRE-PREPARE layout for primary-side batches
	// of ≥ 2 requests; batches of one keep tag 31 and its exact byte layout.
	tagPrePrepareBatch = 60
)

// maxBatch bounds the requests decoded per batched PRE-PREPARE.
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

// PrePrepare is the primary's ordering proposal ⟨PRE-PREPARE, v, n, d⟩σp, m.
// With primary-side batching it orders a whole batch of requests in one
// sequence number: Req is the first request and Batch carries the rest; d
// is then the batch digest, so the one primary signature covers every
// command in the batch.
type PrePrepare struct {
	View      uint64
	Seq       uint64
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
func (m *PrePrepare) Signature() []byte { return m.Sig }

// BatchSize returns the number of requests this PRE-PREPARE orders.
func (m *PrePrepare) BatchSize() int { return 1 + len(m.Batch) }

// ReqAt returns the i'th request of the batch (0 = Req).
func (m *PrePrepare) ReqAt(i int) *Request {
	if i == 0 {
		return &m.Req
	}
	return &m.Batch[i-1]
}

// Tag implements codec.Message.
func (m *PrePrepare) Tag() uint8 {
	if len(m.Batch) > 0 {
		return tagPrePrepareBatch
	}
	return tagPrePrepare
}

// MarshalTo implements codec.Message.
func (m *PrePrepare) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	m.Req.MarshalTo(w)
	engine.MarshalBatch(w, m.Batch, (*Request).MarshalTo)
}

func (m *PrePrepare) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
}

func decodePrePrepare(r *codec.Reader) (*PrePrepare, error) {
	return decodePrePrepareFmt(r, false)
}

// decodePrePrepareFmt parses either PRE-PREPARE layout; batched selects
// the tag-60 layout with the trailing extra requests.
func decodePrePrepareFmt(r *codec.Reader, batched bool) (*PrePrepare, error) {
	m := &PrePrepare{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
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

// Prepare is a backup's agreement vote ⟨PREPARE, v, n, d, i⟩σi.
type Prepare struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest
	Replica   types.ReplicaID
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Prepare) Tag() uint8 { return tagPrepare }

// MarshalTo implements codec.Message.
func (m *Prepare) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Prepare) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Replica))
}

func decodePrepare(r *codec.Reader) (*Prepare, error) {
	m := &Prepare{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// Commit is a replica's commit vote ⟨COMMIT, v, n, d, i⟩σi.
type Commit struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest
	Replica   types.ReplicaID
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Commit) Tag() uint8 { return tagCommit }

// MarshalTo implements codec.Message.
func (m *Commit) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Commit) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Replica))
}

func decodeCommit(r *codec.Reader) (*Commit, error) {
	m := &Commit{
		View:      r.Uvarint(),
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// Reply carries the execution result to the client ⟨REPLY, v, t, c, i, r⟩σi.
type Reply struct {
	View      uint64
	Timestamp uint64
	Client    types.ClientID
	Replica   types.ReplicaID
	Result    types.Result
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Reply) Tag() uint8 { return tagReply }

// Info implements engine.QuorumReply.
func (m *Reply) Info() engine.ReplyInfo {
	return engine.ReplyInfo{View: m.View, Timestamp: m.Timestamp, Client: m.Client, Replica: m.Replica, Result: m.Result, Sig: m.Sig}
}

// MarshalTo implements codec.Message.
func (m *Reply) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Reply) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Timestamp)
	w.Int32(int32(m.Client))
	w.Int32(int32(m.Replica))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
}

func decodeReply(r *codec.Reader) (*Reply, error) {
	m := &Reply{
		View:      r.Uvarint(),
		Timestamp: r.Uvarint(),
		Client:    types.ClientID(r.Int32()),
		Replica:   types.ReplicaID(r.Int32()),
	}
	m.Result.OK = r.Bool()
	m.Result.Value = r.Blob()
	m.Sig = r.Blob()
	return m, r.Err()
}

// VCEntry is one history entry carried in a view change. ReqSig is the
// client's original request signature, so the new primary can re-issue a
// verifiable PRE-PREPARE. Batched slots are carried — and re-proposed —
// whole: Cmd/ReqSig hold the first request and Extra the rest, so a view
// change can never split a batch.
type VCEntry struct {
	Seq       uint64
	CmdDigest types.Digest // batch digest for batched slots
	Cmd       types.Command
	ReqSig    []byte
	Prepared  bool
	Extra     []Request // requests 2..k of a batched slot
}

// vcBatchFlag marks a batched history entry; it is OR'ed into the
// prepared byte on the wire so unbatched entries keep the pre-batching
// layout (Prepared encoded as 0 or 1).
const vcBatchFlag = 0x80

func (e *VCEntry) marshalTo(w *codec.Writer) {
	w.Uvarint(e.Seq)
	w.Bytes32(e.CmdDigest)
	w.Command(e.Cmd)
	w.Blob(e.ReqSig)
	status := uint8(0)
	if e.Prepared {
		status = 1
	}
	if len(e.Extra) > 0 {
		status |= vcBatchFlag
	}
	w.Uint8(status)
	engine.MarshalBatch(w, e.Extra, (*Request).MarshalTo)
}

func decodeVCEntry(r *codec.Reader) (VCEntry, error) {
	e := VCEntry{
		Seq:       r.Uvarint(),
		CmdDigest: r.Bytes32(),
		Cmd:       r.Command(),
		ReqSig:    r.Blob(),
	}
	status := r.Uint8()
	e.Prepared = status&1 != 0
	if status&vcBatchFlag != 0 {
		var err error
		if e.Extra, err = engine.DecodeBatch(r, maxBatch-2, decodeRequestInto); err != nil {
			return e, err
		}
	}
	return e, r.Err()
}

// Reqs returns the entry's full request batch (first request plus extras).
func (e *VCEntry) Reqs() []Request {
	out := make([]Request, 0, 1+len(e.Extra))
	out = append(out, Request{Cmd: e.Cmd, Sig: e.ReqSig})
	return append(out, e.Extra...)
}

// ViewChange carries a replica's prepared history ⟨VIEW-CHANGE, v+1, ...⟩σi.
type ViewChange struct {
	NewView uint64
	Replica types.ReplicaID
	MaxSeq  uint64
	Entries []VCEntry
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
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
	codec.Register(tagRequest, "pbft.Request", func(r *codec.Reader) (codec.Message, error) { return decodeRequest(r) })
	codec.Register(tagPrePrepare, "pbft.PrePrepare", func(r *codec.Reader) (codec.Message, error) { return decodePrePrepare(r) })
	codec.Register(tagPrepare, "pbft.Prepare", func(r *codec.Reader) (codec.Message, error) { return decodePrepare(r) })
	codec.Register(tagCommit, "pbft.Commit", func(r *codec.Reader) (codec.Message, error) { return decodeCommit(r) })
	codec.Register(tagReply, "pbft.Reply", func(r *codec.Reader) (codec.Message, error) { return decodeReply(r) })
	codec.Register(tagViewChange, "pbft.ViewChange", func(r *codec.Reader) (codec.Message, error) { return decodeViewChange(r) })
	codec.Register(tagNewView, "pbft.NewView", func(r *codec.Reader) (codec.Message, error) { return decodeNewView(r) })
	codec.Register(tagPrePrepareBatch, "pbft.PrePrepareB", func(r *codec.Reader) (codec.Message, error) { return decodePrePrepareFmt(r, true) })
}
