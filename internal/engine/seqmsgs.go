package engine

import (
	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// The message shapes the sequenced protocols share — the client's REQUEST,
// the phase vote and the REPLY — defined once and instantiated by each
// protocol with a zero-size Tagger that names its wire tag
// (`type Request = engine.Request[requestTag]`). Each protocol keeps its
// own tags; the layouts are common.

// Tagger names a shared message shape's wire tag in one protocol.
type Tagger interface{ Tag() uint8 }

// Request is the client's signed command submission, ⟨REQUEST, o, t, c⟩σc.
type Request[T Tagger] struct {
	Cmd types.Command
	Sig []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Request[T]) Tag() uint8 { var t T; return t.Tag() }

// Clone returns a copy safe to take while other nodes' verifier pools may
// still be marking the shared original (client retransmissions hand one
// decoded Request to every replica on the in-process mesh): the embedded
// Verified flag is re-read atomically instead of plain-copied.
func (m *Request[T]) Clone() Request[T] {
	cp := Request[T]{Cmd: m.Cmd, Sig: m.Sig}
	if m.SigVerified() {
		cp.MarkSigVerified()
	}
	return cp
}

// Command, Signature and SetSignature implement ClientRequest.
func (m *Request[T]) Command() *types.Command { return &m.Cmd }
func (m *Request[T]) Signature() []byte       { return m.Sig }
func (m *Request[T]) SetSignature(sig []byte) { m.Sig = sig }

// MarshalTo implements codec.Message.
func (m *Request[T]) MarshalTo(w *codec.Writer) {
	w.Command(m.Cmd)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the client signature covers.
func (m *Request[T]) MarshalBody(w *codec.Writer) { w.Command(m.Cmd) }

// DecodeRequestInto parses a REQUEST into m, which is where messages that
// embed requests by value (ordering batches, WAL records) want it.
func DecodeRequestInto[T Tagger](r *codec.Reader, m *Request[T]) error {
	m.Cmd = r.Command()
	m.Sig = r.Blob()
	return r.Err()
}

// Vote is a replica's signed vote for a batch at one sequence number of
// one view, ⟨PHASE, v, n, d, i⟩σi: PBFT's PREPARE and COMMIT, FaB's ACCEPT.
type Vote[T Tagger] struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest
	Replica   types.ReplicaID
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Vote[T]) Tag() uint8 { var t T; return t.Tag() }

// Voted implements CertVote.
func (m *Vote[T]) Voted() (uint64, uint64, types.Digest, types.ReplicaID, []byte) {
	return m.View, m.Seq, m.CmdDigest, m.Replica, m.Sig
}

// MarshalTo implements codec.Message.
func (m *Vote[T]) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the replica signature covers.
func (m *Vote[T]) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
	w.Int32(int32(m.Replica))
}

// Votes is one slot's votes of one phase, by replica (nil where none).
type Votes[T Tagger] []*Vote[T]

// Count returns how many replicas voted.
func (v Votes[T]) Count() int {
	n := 0
	for _, x := range v {
		if x != nil {
			n++
		}
	}
	return n
}

// Keep forgets the votes that are not for view and digest: they arrived
// before the slot's frame, for another batch.
func (v Votes[T]) Keep(view uint64, digest types.Digest) {
	for i, x := range v {
		if x != nil && (x.View != view || x.CmdDigest != digest) {
			v[i] = nil
		}
	}
}

// Cert returns the votes for view and digest as a certificate, in replica
// order, or nil if fewer than q replicas cast one.
func (v Votes[T]) Cert(view uint64, digest types.Digest, q int) []codec.Message {
	var cert []codec.Message
	for _, x := range v {
		if x != nil && x.View == view && x.CmdDigest == digest {
			cert = append(cert, x)
		}
	}
	if len(cert) < q {
		return nil
	}
	return cert
}

// Reply carries one command's execution result to its client,
// ⟨REPLY, v, t, c, i, r⟩σi (PBFT and FaB; a QuorumReply).
type Reply[T Tagger] struct {
	View      uint64
	Timestamp uint64
	Client    types.ClientID
	Replica   types.ReplicaID
	Result    types.Result
	Sig       []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Reply[T]) Tag() uint8 { var t T; return t.Tag() }

// Info implements QuorumReply.
func (m *Reply[T]) Info() ReplyInfo {
	return ReplyInfo{View: m.View, Timestamp: m.Timestamp, Client: m.Client, Replica: m.Replica, Result: m.Result, Sig: m.Sig}
}

// MarshalTo implements codec.Message.
func (m *Reply[T]) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the replica signature covers.
func (m *Reply[T]) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Timestamp)
	w.Int32(int32(m.Client))
	w.Int32(int32(m.Replica))
	w.Bool(m.Result.OK)
	w.Blob(m.Result.Value)
}

// RegisterRequest installs the decoder of one protocol's REQUEST, named
// "<proto>.Request".
func RegisterRequest[T Tagger](proto string) {
	var t T
	codec.Register(t.Tag(), proto+".Request", func(r *codec.Reader) (codec.Message, error) {
		m := &Request[T]{}
		return m, DecodeRequestInto(r, m)
	})
}

// RegisterVote installs the decoder of one protocol's vote T, named
// "<proto>.<name>".
func RegisterVote[T Tagger](proto, name string) {
	var t T
	codec.Register(t.Tag(), proto+"."+name, func(r *codec.Reader) (codec.Message, error) {
		m := &Vote[T]{View: r.Uvarint(), Seq: r.Uvarint(), CmdDigest: r.Bytes32(), Replica: types.ReplicaID(r.Int32())}
		m.Sig = r.Blob()
		return m, r.Err()
	})
}

// RegisterReply installs the decoder of one protocol's REPLY, named
// "<proto>.Reply".
func RegisterReply[T Tagger](proto string) {
	var t T
	codec.Register(t.Tag(), proto+".Reply", func(r *codec.Reader) (codec.Message, error) {
		m := &Reply[T]{View: r.Uvarint(), Timestamp: r.Uvarint(), Client: types.ClientID(r.Int32()), Replica: types.ReplicaID(r.Int32())}
		m.Result.OK = r.Bool()
		m.Result.Value = r.Blob()
		m.Sig = r.Blob()
		return m, r.Err()
	})
}

// FrameTagger names a protocol's REQUEST tag (Tag) and the unbatched and
// batched tags of its Proposal.
type FrameTagger interface {
	Tagger
	FrameTags() (single, batched uint8)
}

// Proposal is a primary's ordering frame ⟨PROPOSAL, v, n, d⟩σp, m: PBFT's
// PRE-PREPARE, FaB's PROPOSE. With primary-side batching it orders a whole
// batch of requests in one sequence number: Req is the first request and
// Batch carries the rest; d is then the batch digest, so the one primary
// signature covers every command in the batch. A batch of one keeps the
// unbatched tag and its exact byte layout.
type Proposal[T FrameTagger] struct {
	View      uint64
	Seq       uint64
	CmdDigest types.Digest // d = H(m) (batch digest for batches of ≥ 2)
	Req       Request[T]
	Batch     []Request[T] // requests 2..k of the batch (nil when unbatched)
	Sig       []byte

	// Verified marks that the primary signature and every embedded client
	// signature were checked by a transport-side verifier pool; part of
	// the Frame surface. Never marshaled.
	codec.Verified
}

// Signature implements Frame.
func (m *Proposal[T]) Signature() []byte { return m.Sig }

// Position implements Frame.
func (m *Proposal[T]) Position() (uint64, uint64, types.Digest) { return m.View, m.Seq, m.CmdDigest }

// BatchSize returns the number of requests the frame orders.
func (m *Proposal[T]) BatchSize() int { return 1 + len(m.Batch) }

// ReqAt returns the i'th request of the batch (0 = Req).
func (m *Proposal[T]) ReqAt(i int) *Request[T] {
	if i == 0 {
		return &m.Req
	}
	return &m.Batch[i-1]
}

// Tag implements codec.Message.
func (m *Proposal[T]) Tag() uint8 {
	var t T
	single, batched := t.FrameTags()
	if len(m.Batch) > 0 {
		return batched
	}
	return single
}

// MarshalTo implements codec.Message.
func (m *Proposal[T]) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	m.Req.MarshalTo(w)
	MarshalBatch(w, m.Batch, (*Request[T]).MarshalTo)
}

// MarshalBody writes the bytes the primary signature covers.
func (m *Proposal[T]) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.CmdDigest)
}

// RegisterProposal installs the decoders of one protocol's Proposal, named
// "<proto>.<name>" and, for the batched layout, "<proto>.<name>B";
// maxBatch bounds the requests one frame decodes.
func RegisterProposal[T FrameTagger](proto, name string, maxBatch int) {
	decoder := func(batched bool) codec.Decoder {
		return func(r *codec.Reader) (codec.Message, error) {
			m := &Proposal[T]{View: r.Uvarint(), Seq: r.Uvarint(), CmdDigest: r.Bytes32()}
			m.Sig = r.Blob()
			if err := DecodeRequestInto(r, &m.Req); err != nil {
				return nil, err
			}
			if batched {
				var err error
				if m.Batch, err = DecodeBatch(r, uint64(maxBatch-2), DecodeRequestInto[T]); err != nil {
					return nil, err
				}
			}
			return m, r.Err()
		}
	}
	var t T
	single, batched := t.FrameTags()
	codec.Register(single, proto+"."+name, decoder(false))
	codec.Register(batched, proto+"."+name+"B", decoder(true))
}
