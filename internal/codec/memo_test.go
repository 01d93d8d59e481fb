package codec

import (
	"bytes"
	"errors"
	"testing"
)

// TestMemoHitNeedsExactBytes: a stored value comes back for the same bytes
// only, whatever slot other spans land in, and the memo keeps its own copy
// of the span.
func TestMemoHitNeedsExactBytes(t *testing.T) {
	m := NewMemo()
	span := []byte("a span of some length")
	val := new(int)
	m.Store(span, val)
	span[0] = 'A' // the caller's buffer is reused
	if got := m.Lookup(span); got != nil {
		t.Fatalf("changed bytes found %v", got)
	}
	span[0] = 'a'
	if got := m.Lookup(span); got != val {
		t.Fatalf("stored bytes found %v, want the stored value", got)
	}
	if got := m.Lookup(span[:len(span)-1]); got != nil {
		t.Fatalf("a prefix found %v", got)
	}
	for i := 0; i < 4*memoSlots; i++ {
		other := []byte{byte(i), byte(i >> 8), 'x'}
		m.Store(other, i)
		if got := m.Lookup(other); got != i {
			t.Fatalf("span %d found %v right after it was stored", i, got)
		}
	}
}

// TestMemoBounded: a span longer than maxMemoSpan is never kept, and once a
// slot's buffer has grown, storing and looking up allocate nothing.
func TestMemoBounded(t *testing.T) {
	m := NewMemo()
	long := make([]byte, maxMemoSpan+1)
	m.Store(long, 1)
	if m.Lookup(long) != nil {
		t.Fatal("an over-long span was kept")
	}
	for i := range m.slots {
		if m.slots[i].raw != nil {
			t.Fatal("an over-long span was copied into a slot")
		}
	}
	span := bytes.Repeat([]byte{7}, 200)
	val := new(int)
	for i := 0; i < 256; i++ { // grow the slot of every span the loop below stores
		span[0]++
		m.Store(span, val)
	}
	allocs := testing.AllocsPerRun(100, func() {
		span[0]++
		m.Store(span, val)
		if m.Lookup(span) != val {
			t.Fatal("stored span missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm memo allocates %v objects per store and lookup, want 0", allocs)
	}
}

// TestReaderRefusesLongVarints: a varint padded with zero groups decodes to
// the same value as its shortest form, so accepting it would let two byte
// strings decode to one message; both varint readers refuse it.
func TestReaderRefusesLongVarints(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0x85, 0x80, 0x00}} {
		r := NewReader(b)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrLongVarint) {
			t.Errorf("Uvarint(%x): err %v, want ErrLongVarint", b, r.Err())
		}
		r = NewReader(b)
		r.Int32()
		if !errors.Is(r.Err(), ErrLongVarint) {
			t.Errorf("Int32(%x): err %v, want ErrLongVarint", b, r.Err())
		}
	}
	w := NewWriter(16)
	w.Uvarint(0)
	w.Uvarint(128)
	w.Int32(-64)
	r := NewReader(w.Bytes())
	if r.Uvarint() != 0 || r.Uvarint() != 128 || r.Int32() != -64 || r.Finish() != nil {
		t.Fatalf("shortest forms refused: %v", r.Err())
	}
}

// TestMemoStats: lookups for decoded and for sent values are counted apart,
// each as a hit or a miss, as the decoder that made them counts them.
func TestMemoStats(t *testing.T) {
	m := NewMemo()
	m.Decoded.Count(true)
	m.Decoded.Count(false)
	m.Decoded.Count(false)
	m.Sent.Count(true)
	m.Sent.Count(true)
	m.Sent.Count(false)
	want := MemoStats{Hits: 1, Misses: 2, SentHits: 2, SentMisses: 1}
	if got := m.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
