package engine

import (
	"slices"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// The wire messages of the sequenced view change (viewchange.go): one
// VIEW-CHANGE / NEW-VIEW pair shared by PBFT, Zyzzyva and FaB. Each protocol
// keeps its own tag numbers (ViewTags) and the layouts are common. A
// VIEW-CHANGE embeds the protocol's own messages — ordering frames and the
// votes of its quorum certificates — each as a length-prefixed encoding
// whose tag the protocol allows (ViewTags.Frames, ViewTags.Votes).

// ViewTags names the wire tags one protocol gives the view-change pair and
// the tags of the messages a VIEW-CHANGE may embed.
type ViewTags struct {
	ViewChange, NewView uint8
	// Frames are the protocol's ordering-frame tags, Votes the tags of the
	// votes its certificates are made of.
	Frames, Votes []uint8
}

// Decode bounds: the slots one VIEW-CHANGE reports (and one NEW-VIEW
// orders), the votes of one certificate, and the checkpoint votes of one
// proof or the VIEW-CHANGEs of one NEW-VIEW (one per replica).
const (
	maxViewSlots = 1 << 16
	maxCertVotes = 64
	maxViewProof = 64
)

// RegisterViewMessages installs the decoders for one protocol's
// view-change tags, named "<proto>.ViewChange" and "<proto>.NewView";
// ckptTag is the tag of the CHECKPOINT votes a VIEW-CHANGE's stable-mark
// proof carries. Protocol packages call it from init.
func RegisterViewMessages(proto string, tags ViewTags, ckptTag uint8) {
	codec.Register(tags.ViewChange, proto+".ViewChange", func(r *codec.Reader) (codec.Message, error) {
		return decodeViewChange(r, &tags, ckptTag)
	})
	codec.Register(tags.NewView, proto+".NewView", func(r *codec.Reader) (codec.Message, error) {
		m := &NewView{View: r.Uvarint(), Replica: types.ReplicaID(r.Int32()), tag: tags.NewView}
		var err error
		m.Changes, err = decodeList(r, maxViewProof, func(r *codec.Reader) (*ViewChange, error) {
			return decodeViewChange(r, &tags, ckptTag)
		})
		if err != nil {
			return nil, err
		}
		m.Sig = r.Blob()
		return m, r.Err()
	})
}

// ViewEntry is one slot a VIEW-CHANGE reports: the primary-signed ordering
// frame its sender accepted there (nil for a no-op a NEW-VIEW ordered) and
// the protocol's quorum certificate for it, where the sender holds one.
type ViewEntry struct {
	Seq   uint64
	Frame codec.Message
	Cert  []codec.Message
}

// ViewChange is a replica's request to move to View,
// ⟨VIEW-CHANGE, v, n, d, E, i⟩σi: its stable checkpoint (Mark, Digest),
// proved by 2f+1 CHECKPOINT votes, and every slot above it it accepted.
type ViewChange struct {
	View    uint64
	Replica types.ReplicaID
	Mark    uint64
	Digest  types.Digest
	Entries []ViewEntry // ascending Seq, each above Mark
	Sig     []byte
	Proof   []*Checkpoint // outside the signed body; each vote self-signs

	codec.Verified // transport-side pre-verification marker; never marshaled
	tag            uint8
}

// Tag implements codec.Message.
func (m *ViewChange) Tag() uint8 { return m.tag }

// MarshalTo implements codec.Message.
func (m *ViewChange) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
	w.Uvarint(uint64(len(m.Proof)))
	for _, v := range m.Proof {
		v.MarshalTo(w)
	}
}

// MarshalBody writes the bytes the sender's signature covers.
func (m *ViewChange) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Uvarint(m.Mark)
	w.Bytes32(m.Digest)
	w.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].MarshalTo(w)
	}
}

// MarshalTo writes the entry as a VIEW-CHANGE carries it (and the
// write-ahead log keeps a certificate, WALHold).
func (e *ViewEntry) MarshalTo(w *codec.Writer) {
	w.Uvarint(e.Seq)
	marshalNested(w, e.Frame)
	w.Uvarint(uint64(len(e.Cert)))
	for _, v := range e.Cert {
		marshalNested(w, v)
	}
}

// DecodeViewEntry reads what ViewEntry.MarshalTo writes, its embedded
// messages restricted to tags.
func DecodeViewEntry(r *codec.Reader, tags *ViewTags) (ViewEntry, error) {
	e := ViewEntry{Seq: r.Uvarint()}
	var err error
	if e.Frame, err = decodeNested(r, tags.Frames, true); err != nil {
		return e, err
	}
	e.Cert, err = decodeList(r, maxCertVotes, func(r *codec.Reader) (codec.Message, error) {
		return decodeNested(r, tags.Votes, false)
	})
	return e, err
}

// marshalNested writes one embedded message as a length-prefixed framed
// encoding; nil is the empty string.
func marshalNested(w *codec.Writer, m codec.Message) {
	if m == nil {
		w.Blob(nil)
		return
	}
	w.Blob(codec.Marshal(m))
}

// decodeNested reads what marshalNested writes, refusing a tag outside
// allowed; an empty string is nil when empty is true, an error otherwise.
func decodeNested(r *codec.Reader, allowed []uint8, empty bool) (codec.Message, error) {
	b := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		if empty {
			return nil, nil
		}
		return nil, codec.ErrShortBuffer
	}
	if !slices.Contains(allowed, b[0]) {
		return nil, codec.ErrUnknownType
	}
	return codec.Unmarshal(b)
}

// decodeList reads a count of at most limit and that many elements. The
// count is outside input, so the slice grows as elements decode instead of
// being sized by it.
func decodeList[T any](r *codec.Reader, limit uint64, dec func(*codec.Reader) (T, error)) ([]T, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > limit {
		return nil, codec.ErrOverflow
	}
	var out []T
	for i := uint64(0); i < n; i++ {
		v, err := dec(r)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func decodeViewChange(r *codec.Reader, tags *ViewTags, ckptTag uint8) (*ViewChange, error) {
	m := &ViewChange{
		View:    r.Uvarint(),
		Replica: types.ReplicaID(r.Int32()),
		Mark:    r.Uvarint(),
		Digest:  r.Bytes32(),
		tag:     tags.ViewChange,
	}
	var err error
	m.Entries, err = decodeList(r, maxViewSlots, func(r *codec.Reader) (ViewEntry, error) {
		return DecodeViewEntry(r, tags)
	})
	if err != nil {
		return nil, err
	}
	m.Sig = r.Blob()
	m.Proof, err = decodeList(r, maxViewProof, func(r *codec.Reader) (*Checkpoint, error) {
		return DecodeCheckpoint(r, ckptTag)
	})
	if err != nil {
		return nil, err
	}
	return m, r.Err()
}

// NewView starts View, ⟨NEW-VIEW, v, V⟩σp: the new primary's 2f+1
// VIEW-CHANGEs for it, from which every replica recomputes what the view
// orders first (viewPlan).
type NewView struct {
	View    uint64
	Replica types.ReplicaID
	Changes []*ViewChange
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
	tag            uint8
}

// Tag implements codec.Message.
func (m *NewView) Tag() uint8 { return m.tag }

// MarshalTo implements codec.Message.
func (m *NewView) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

// MarshalBody writes the bytes the new primary's signature covers: the
// VIEW-CHANGEs whole, their signatures and proofs included.
func (m *NewView) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Int32(int32(m.Replica))
	w.Uvarint(uint64(len(m.Changes)))
	for _, vc := range m.Changes {
		vc.MarshalTo(w)
	}
}
