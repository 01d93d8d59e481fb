package codec

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Memo holds values that one node's inbound messages embed byte for byte:
// in ezBFT every SPECREPLY carries the SPECORDER it answers and a
// COMMITFAST the reply, so a node meets the same SPECORDER bytes several
// times within a round trip, and a replica gets the SPECREPLY it sent back
// inside the client's certificate. A decoder that finds a Memo on its Reader
// skips over such a span, looks its exact bytes up and, on a hit, returns the
// value held for them instead of decoding it again.
//
// A value gets there in one of two ways: a decoder stores what it decoded
// (Store), and a transport stores a message it sends whose type is
// KeptWhenSent, under the span that message marshaled to.
//
// The rules:
//
//   - A hit needs an exact byte match. The hash only picks the slot.
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
//   - Memory is bounded: memoSlots direct-mapped slots, each keeping one
//     span of at most maxMemoSpan bytes and the value held for it. A
//     longer span is decoded every time, and a longer sent one not kept. A
//     slot reuses its buffer, so once it has grown, storing allocates
//     nothing.
type Memo struct {
	seed  maphash.Seed
	slots [memoSlots]memoSlot

	// Decoded and Sent count the lookups decoders made for values the node
	// decoded and for values it sent. A decoder counts each lookup once it
	// knows whether it used the value held (Counter.Count).
	Decoded, Sent Counter
}

// Counter counts one kind of a Memo's lookups: a hit where the decoder used
// the value held, a miss where it decoded the span, because nothing was held
// for those bytes or what was held was not what it needed. Safe for
// concurrent use.
type Counter struct{ hits, misses atomic.Uint64 }

// Count records one lookup, a hit if the decoder used the value it found.
func (c *Counter) Count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// KeptWhenSent marks a message type whose values come back to their sender
// embedded byte for byte in later messages, so that a transport keeps each
// one it sends in its node's Memo, under the span it marshaled to (its body,
// without the tag).
type KeptWhenSent interface {
	Message
	KeepWhenSent()
}

// MemoStats counts a Memo's lookups: Hits and Misses those for values the
// node decoded (Memo.Decoded), SentHits and SentMisses those for values it
// sent (Memo.Sent).
type MemoStats struct {
	Hits, Misses         uint64
	SentHits, SentMisses uint64
}

// memoSlots and maxMemoSpan bound a Memo to 512 KiB of spans plus the values
// held for them. An unbatched SPECORDER with 32-byte signatures and a
// 16-byte value is 167 bytes; a batch of 16 such requests is 1.1 KiB; a
// SPECREPLY embedding the first is about 250 bytes.
const (
	memoSlots   = 128
	maxMemoSpan = 4 << 10
)

type memoSlot struct {
	mu  sync.Mutex
	raw []byte
	val any
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{seed: maphash.MakeSeed()} }

// Unmarshal decodes a framed message as the package-level Unmarshal does,
// with decoders that look embedded spans up in m.
func (m *Memo) Unmarshal(b []byte) (Message, error) { return unmarshal(b, m) }

func (m *Memo) slot(span []byte) *memoSlot {
	return &m.slots[maphash.Bytes(m.seed, span)%memoSlots]
}

// Lookup returns the value stored for exactly span, or nil.
func (m *Memo) Lookup(span []byte) any {
	if len(span) > maxMemoSpan {
		return nil
	}
	s := m.slot(span)
	s.mu.Lock()
	var v any
	if bytes.Equal(s.raw, span) {
		v = s.val
	}
	s.mu.Unlock()
	return v
}

// Stats returns the lookup counts so far. Safe for concurrent use.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Hits: m.Decoded.hits.Load(), Misses: m.Decoded.misses.Load(),
		SentHits: m.Sent.hits.Load(), SentMisses: m.Sent.misses.Load(),
	}
}

// Store records v as the value span decodes to, in place of whatever its
// slot held. The memo copies span; the caller may reuse it.
func (m *Memo) Store(span []byte, v any) {
	if len(span) > maxMemoSpan {
		return
	}
	s := m.slot(span)
	s.mu.Lock()
	s.raw = append(s.raw[:0], span...)
	s.val = v
	s.mu.Unlock()
}
