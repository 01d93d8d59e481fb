package engine

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// The wire messages of the sequenced log lifecycle (seqlog.go): one
// CHECKPOINT vote and one CATCHUP-REQ / CATCHUP-RESP pair, shared by PBFT,
// Zyzzyva and FaB. Each protocol keeps its own tag numbers (LogTags) and
// the layouts are common. A CHECKPOINT's encoding must not change: the
// write-ahead log stores votes as their frames (WALVote).

// LogTags names the wire tags one protocol gives the lifecycle messages.
type LogTags struct {
	Checkpoint, CatchupReq, CatchupResp uint8
}

// RegisterLogMessages installs the decoders for one protocol's lifecycle
// tags, named "<proto>.Checkpoint", "<proto>.CatchupReq" and
// "<proto>.CatchupResp". Protocol packages call it from init.
func RegisterLogMessages(proto string, tags LogTags) {
	codec.Register(tags.Checkpoint, proto+".Checkpoint", func(r *codec.Reader) (codec.Message, error) {
		return DecodeCheckpoint(r, tags.Checkpoint)
	})
	codec.Register(tags.CatchupReq, proto+".CatchupReq", func(r *codec.Reader) (codec.Message, error) {
		m := &CatchupReq{Replica: types.ReplicaID(r.Int32()), tag: tags.CatchupReq}
		m.Sig = r.Blob()
		return m, r.Err()
	})
	codec.Register(tags.CatchupResp, proto+".CatchupResp", func(r *codec.Reader) (codec.Message, error) {
		return decodeCatchupResp(r, tags)
	})
}

// maxSlotRequests bounds the requests decoded per transferred slot: the
// sequenced protocols' batch bound.
const maxSlotRequests = 4096

// Checkpoint is a replica's signed executed-watermark vote,
// ⟨CHECKPOINT, n, d, i⟩σi: its application state after executing sequence
// number n digests to d.
type Checkpoint struct {
	Seq     uint64
	Digest  types.Digest
	Replica types.ReplicaID
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
	tag            uint8
}

// Tag implements codec.Message.
func (m *Checkpoint) Tag() uint8 { return m.tag }

// MarshalTo implements codec.Message.
func (m *Checkpoint) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

// Signer and Ballot implement CheckpointVote: a sequenced protocol has one space.
func (m *Checkpoint) Signer() (types.ReplicaID, []byte) { return m.Replica, m.Sig }
func (m *Checkpoint) Ballot() (CheckpointSpace, uint64, types.Digest) {
	return 0, m.Seq, m.Digest
}

// MarshalBody writes the bytes the replica signature covers.
func (m *Checkpoint) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.Seq)
	w.Bytes32(m.Digest)
	w.Int32(int32(m.Replica))
}

// DecodeCheckpoint parses a CHECKPOINT as MarshalTo writes it, for a
// protocol whose vote travels under tag.
func DecodeCheckpoint(r *codec.Reader, tag uint8) (*Checkpoint, error) {
	m := &Checkpoint{
		Seq:     r.Uvarint(),
		Digest:  r.Bytes32(),
		Replica: types.ReplicaID(r.Int32()),
		tag:     tag,
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

// CatchupReq asks a peer for a state transfer, ⟨CATCHUP-REQ, i⟩σi.
type CatchupReq struct {
	Replica types.ReplicaID
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
	tag            uint8
}

// Tag implements codec.Message.
func (m *CatchupReq) Tag() uint8 { return m.tag }

// MarshalTo implements codec.Message.
func (m *CatchupReq) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the replica signature covers.
func (m *CatchupReq) MarshalBody(w *codec.Writer) { w.Int32(int32(m.Replica)) }

// Signer implements Signed.
func (m *CatchupReq) Signer() (types.ReplicaID, []byte) { return m.Replica, m.Sig }

// CatchupCmd is one request of a transferred slot, encoded as the
// sequenced protocols encode a REQUEST. Sig is the client's signature
// where the responder kept it (PBFT) and empty otherwise: a transferred
// command is vouched for by f+1 agreeing responders, not by its client.
type CatchupCmd struct {
	Cmd types.Command
	Sig []byte
}

// UnsignedCmds wraps commands whose client signatures were not kept.
func UnsignedCmds(cmds []types.Command) []CatchupCmd {
	out := make([]CatchupCmd, len(cmds))
	for i, c := range cmds {
		out[i].Cmd = c
	}
	return out
}

// CatchupSlot is one executed slot above the checkpoint inside a
// CATCHUP-RESP: its sequence number, the view it executed in (advisory,
// outside agreement), and the ordered request batch.
type CatchupSlot struct {
	Seq  uint64
	View uint64
	Reqs []CatchupCmd
}

// CatchupResp is the state-transfer response: the stable checkpoint
// (sequence number, agreed digest, 2f+1 signed votes), the application
// snapshot and the protocol's aux value (Zyzzyva's history hash) at exactly
// that sequence number, the responder's current view, and its executed
// suffix above the checkpoint.
type CatchupResp struct {
	Replica  types.ReplicaID
	View     uint64
	Seq      uint64
	Digest   types.Digest
	Aux      types.Digest
	Snapshot []byte
	Suffix   []CatchupSlot
	Proof    []*Checkpoint // outside the signed body; each vote self-signs
	Sig      []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
	tag            uint8
}

// Tag implements codec.Message.
func (m *CatchupResp) Tag() uint8 { return m.tag }

// MarshalTo implements codec.Message.
func (m *CatchupResp) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	w.Uvarint(uint64(len(m.Proof)))
	for _, v := range m.Proof {
		v.MarshalTo(w)
	}
}

// Signer implements Signed.
func (m *CatchupResp) Signer() (types.ReplicaID, []byte) { return m.Replica, m.Sig }

// MarshalBody writes the bytes the responder's signature covers.
func (m *CatchupResp) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Bytes32(m.Digest)
	w.Bytes32(m.Aux)
	w.Blob(m.Snapshot)
	w.Uvarint(uint64(len(m.Suffix)))
	for i := range m.Suffix {
		s := &m.Suffix[i]
		w.Uvarint(s.Seq)
		w.Uvarint(s.View)
		w.Uvarint(uint64(len(s.Reqs)))
		for j := range s.Reqs {
			w.Command(s.Reqs[j].Cmd)
			w.Blob(s.Reqs[j].Sig)
		}
	}
}

func decodeCatchupResp(r *codec.Reader, tags LogTags) (*CatchupResp, error) {
	m := &CatchupResp{
		Replica: types.ReplicaID(r.Int32()),
		View:    r.Uvarint(),
		Seq:     r.Uvarint(),
		Digest:  r.Bytes32(),
		Aux:     r.Bytes32(),
		tag:     tags.CatchupResp,
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
		if nReqs > maxSlotRequests { // 0 is a no-op slot
			return nil, codec.ErrOverflow
		}
		// Each request decodes straight into its slot of the slice.
		s.Reqs = make([]CatchupCmd, nReqs)
		for j := range s.Reqs {
			s.Reqs[j].Cmd = r.Command()
			s.Reqs[j].Sig = r.Blob()
		}
		if err := r.Err(); err != nil {
			return nil, err
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
		v, err := DecodeCheckpoint(r, tags.Checkpoint)
		if err != nil {
			return nil, err
		}
		m.Proof = append(m.Proof, v)
	}
	return m, r.Err()
}

// PreVerifyShared is the transport-side pre-verifier of the messages the
// engine owns — the lifecycle messages and the view-change pair (see
// VerifySigned): handled reports whether msg is one of them, ok whether it
// should be delivered. Embedded votes and VIEW-CHANGEs are checked in-loop
// (a quorum of them, not all), so the valid ones are only marked; a
// VIEW-CHANGE's frames and certificates are validated in-loop.
func PreVerifyShared(a auth.Authenticator, msg codec.Message) (ok, handled bool) {
	switch m := msg.(type) {
	case *ViewChange:
		return VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig), true
	case *NewView:
		if !VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig) {
			return false, true
		}
		for _, vc := range m.Changes {
			TryMarkSigned(a, types.ReplicaNode(vc.Replica), vc, vc.Sig)
		}
		return true, true
	case *Checkpoint:
		return VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig), true
	case *CatchupReq:
		return VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig), true
	case *CatchupResp:
		if !VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig) {
			return false, true
		}
		for _, v := range m.Proof {
			TryMarkSigned(a, types.ReplicaNode(v.Replica), v, v.Sig)
		}
		return true, true
	}
	return false, false
}
