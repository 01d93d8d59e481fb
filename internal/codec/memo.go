package codec

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Memo holds values that one node's inbound messages embed byte for byte:
// in ezBFT every SPECREPLY carries the SPECORDER it answers, so a client
// meets the same SPECORDER bytes in each reply of a round trip, and a
// replica gets the SPECREPLY it sent back inside the client's certificate. A
// decoder that finds a Memo on its Reader asks the right table whether the
// unread bytes begin with a span it holds and, on a hit, takes the value
// held for it and moves past the span instead of decoding it again.
//
// A value gets there in one of two ways: a decoder stores what it decoded
// in Decoded, and a transport stores a message it sends whose type is
// KeptWhenSent in Sent, under the span that message marshaled to. The two
// tables are apart, so no decoded value evicts a sent one that is coming
// back.
//
// The rules:
//
//   - A hit needs the held span's exact bytes at the front of the unread
//     input, and a held value of the message type (the tag, which names the
//     layout) being decoded there. A decoder is deterministic: on bytes it
//     accepted once in that layout it consumes exactly them again and
//     returns an equal value, so the held one stands in for it. The tag
//     matters: an unbatched SPECORDER is a strict prefix of the batched one
//     that orders more requests, and is no answer where the batched layout
//     is decoded.
//   - The slot is chosen by what a value answers: its instance, read from
//     its leading fields, which for every value a Memo holds are an owner
//     number and the instance. Instances of one space take consecutive
//     slots, interleaved with those of the other spaces (modulo
//     memoSpaces), so with up to memoSpaces spaces a value is evicted only
//     by a later value for its own instance or by one for an instance a
//     table's run later in its own space. The same bytes always land in
//     the same slot: whether a lookup hits does not depend on the run.
//   - A held value is shared by every message that embeds those bytes, so it
//     must be immutable once decoded or sent, as every decoded message
//     already is, and every sent one too (the in-process mesh shares one
//     value between the sender and all recipients). Its Verified mark stays
//     with it: the mark is a fact about those bytes.
//   - No held value aliases a frame buffer. A decoded value copies what it
//     keeps out of the frame, a sent value was never in one, and the memo
//     copies the span into its own slot.
//   - A Memo belongs to one node. It is safe for that node's concurrent
//     reader goroutines.
//   - Memory is bounded: memoSlots slots in all, each keeping one span of at
//     most maxMemoSpan bytes and the value held for it. A longer span is
//     decoded every time, and a longer sent one not kept. A slot reuses its
//     buffer, so once it has grown, storing allocates nothing.
type Memo struct {
	Decoded, Sent MemoTable
}

// MemoTable is one of a Memo's two tables, with the counts of the lookups
// made in it: a hit where the decoder used the value held, a miss where it
// decoded the span.
type MemoTable struct {
	slots        []memoSlot
	hits, misses atomic.Uint64
}

// KeptWhenSent marks a message type whose values come back to their sender
// embedded byte for byte in later messages, so that a transport keeps each
// one it sends in its node's Memo.Sent, under the span it marshaled to (its
// body, without the tag).
type KeptWhenSent interface {
	Message
	KeepWhenSent()
}

// MemoStats counts a Memo's lookups: Hits and Misses those in Decoded,
// SentHits and SentMisses those in Sent.
type MemoStats struct {
	Hits, Misses         uint64
	SentHits, SentMisses uint64
}

// memoSlots and maxMemoSpan bound a Memo to 512 KiB of spans plus the values
// held for them. Sent gets sentSlots of the slots, memoSpaces interleaved
// runs of 96 instances: a certificate brings a replica's reply back once the
// client has them all, and on a loaded host the replica's reader has been
// seen to reach it 40 instances of that space later. An unbatched SPECORDER
// with 32-byte signatures and a 16-byte value is 167 bytes, and a SPECREPLY
// embedding it about 250; each further request of a batch adds about 65, so
// a SPECORDER of more than about 13 requests is decoded every time.
// memoSpaces is how many instance spaces interleave without sharing a slot:
// the four of a cluster with f = 1.
const (
	memoSlots   = 512
	sentSlots   = 384
	maxMemoSpan = 1 << 10
	memoSpaces  = 4
)

type memoSlot struct {
	mu  sync.Mutex
	raw []byte
	val Message
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	m := &Memo{}
	m.Decoded.slots = make([]memoSlot, memoSlots-sentSlots)
	m.Sent.slots = make([]memoSlot, sentSlots)
	return m
}

// Unmarshal decodes a framed message as the package-level Unmarshal does,
// with decoders that look embedded spans up in m.
func (m *Memo) Unmarshal(b []byte) (Message, error) { return unmarshal(b, m) }

// Stats returns the lookup counts so far. Safe for concurrent use.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Hits: m.Decoded.hits.Load(), Misses: m.Decoded.misses.Load(),
		SentHits: m.Sent.hits.Load(), SentMisses: m.Sent.misses.Load(),
	}
}

// slot returns the slot for the value whose encoding b begins with, or nil
// if b does not begin with an owner number and an instance.
func (t *MemoTable) slot(b []byte) *memoSlot {
	r := Reader{buf: b}
	r.Uvarint()
	id := r.Instance()
	if r.err != nil {
		return nil
	}
	i := id.Slot*memoSpaces + uint64(uint32(id.Space))%memoSpaces
	return &t.slots[i%uint64(len(t.slots))]
}

// Recall returns the value held for a span the unread bytes of r begin
// with, if it is a message with the given tag, and moves r past the span;
// otherwise it returns nil and r does not move. It counts the lookup, unless
// r has already failed.
func (t *MemoTable) Recall(r *Reader, tag uint8) Message {
	if r.err != nil {
		return nil
	}
	rest := r.buf[r.off:]
	var v Message
	if s := t.slot(rest); s != nil {
		s.mu.Lock()
		if s.val != nil && s.val.Tag() == tag && bytes.HasPrefix(rest, s.raw) {
			v = s.val
			r.off += len(s.raw)
		}
		s.mu.Unlock()
	}
	if v != nil {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return v
}

// Store records v as the value span decodes to, in place of whatever its
// slot held. The memo copies span; the caller may reuse it.
func (t *MemoTable) Store(span []byte, v Message) {
	s := t.slot(span)
	if s == nil || len(span) > maxMemoSpan {
		return
	}
	s.mu.Lock()
	s.raw = append(s.raw[:0], span...)
	s.val = v
	s.mu.Unlock()
}
