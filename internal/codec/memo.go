package codec

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// Memo holds decoded values that one node's inbound messages embed byte for
// byte: in ezBFT every SPECREPLY carries the SPECORDER it answers and a
// COMMITFAST the reply, so a node meets the same SPECORDER bytes several
// times within a round trip. A decoder that finds a Memo on its Reader skips
// over such a span, looks its exact bytes up and, on a hit, returns the value
// decoded the first time instead of decoding it again.
//
// The rules:
//
//   - A hit needs an exact byte match. The hash only picks the slot.
//   - A held value is shared by every message that embeds those bytes, so it
//     must be immutable once decoded, as every decoded message already is
//     (the in-process mesh shares one value between all recipients). Its
//     Verified mark stays with it: the mark is a fact about those bytes.
//   - No held value aliases a frame buffer. A decoded value copies what it
//     keeps out of the frame, and the memo copies the span into its own slot.
//   - A Memo belongs to one node. It is safe for that node's concurrent
//     reader goroutines.
//   - Memory is bounded: memoSlots direct-mapped slots, each keeping one
//     span of at most maxMemoSpan bytes and the value decoded from it. A
//     longer span is decoded every time. A slot reuses its buffer, so once
//     it has grown, storing allocates nothing.
type Memo struct {
	seed  maphash.Seed
	slots [memoSlots]memoSlot
}

// memoSlots and maxMemoSpan bound a Memo to 512 KiB of spans plus the values
// decoded from them. An unbatched SPECORDER with 32-byte signatures and a
// 16-byte value is 167 bytes; a batch of 16 such requests is 1.1 KiB.
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
