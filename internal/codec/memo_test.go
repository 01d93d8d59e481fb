package codec

import (
	"bytes"
	"errors"
	"testing"

	"ezbft/internal/types"
)

// memoMsg is a value a Memo holds; its tag stands for its layout.
type memoMsg struct{ tag uint8 }

func (m *memoMsg) Tag() uint8        { return m.tag }
func (m *memoMsg) MarshalTo(*Writer) {}

// memoSpan is the encoding of a value answering instance (space, slot): an
// owner number, the instance, then body.
func memoSpan(space int32, slot uint64, body string) []byte {
	w := NewWriter(64)
	w.Uvarint(1)
	w.Instance(types.InstanceID{Space: types.ReplicaID(space), Slot: slot})
	w.buf = append(w.buf, body...)
	return w.Bytes()
}

// TestMemoHitNeedsExactBytes: a held value comes back where the unread bytes
// begin with its span's exact bytes and the decoder asks for its tag, and
// the reader then stands right after the span; a changed byte, a cut span or
// another tag misses and leaves the reader where it was. The memo keeps its
// own copy of the span.
func TestMemoHitNeedsExactBytes(t *testing.T) {
	m := NewMemo()
	span := memoSpan(2, 70, "a span of some length")
	val := &memoMsg{tag: 1}
	m.Decoded.Store(span, val)
	stored := append([]byte(nil), span...)
	span[len(span)-1] = 'H' // the caller's buffer is reused
	recall := func(in []byte, tag uint8) (Message, int) {
		r := NewReader(in)
		return m.Decoded.Recall(r, tag), r.Offset()
	}
	if got, off := recall(append(stored, "and what follows"...), 1); got != val || off != len(stored) {
		t.Fatalf("the held span followed by more bytes: %v at offset %d, want the held value at %d", got, off, len(stored))
	}
	for name, in := range map[string][]byte{
		"a changed byte": span,
		"a cut span":     stored[:len(stored)-1],
	} {
		if got, off := recall(in, 1); got != nil || off != 0 {
			t.Errorf("%s found %v and moved the reader to %d", name, got, off)
		}
	}
	if got, off := recall(stored, 2); got != nil || off != 0 {
		t.Errorf("a value of another layout was found (%v, offset %d)", got, off)
	}
	if got, _ := recall(stored, 1); got != val {
		t.Fatal("the held span no longer found")
	}
}

// TestMemoSlotsByInstance: values for consecutive instances of one space,
// in each of memoSpaces spaces at once, all stay held, as many of them as a
// table has slots; sent and decoded values never evict each other.
func TestMemoSlotsByInstance(t *testing.T) {
	m := NewMemo()
	for _, tab := range []*MemoTable{&m.Sent, &m.Decoded} {
		per := uint64(len(tab.slots) / memoSpaces)
		vals := map[string]Message{}
		for slot := uint64(1000); slot < 1000+per; slot++ {
			for space := int32(0); space < memoSpaces; space++ {
				span := memoSpan(space, slot, "body")
				vals[string(span)] = &memoMsg{tag: 1}
				tab.Store(span, vals[string(span)])
			}
		}
		for span, val := range vals {
			if got := tab.Recall(NewReader([]byte(span)), 1); got != val {
				t.Fatalf("%d values stored, the one for %x is not held", len(vals), span)
			}
		}
	}
	sent, decoded := &memoMsg{tag: 1}, &memoMsg{tag: 1}
	span := memoSpan(0, 7, "body")
	m.Sent.Store(span, sent)
	m.Decoded.Store(span, decoded)
	if m.Sent.Recall(NewReader(span), 1) != sent || m.Decoded.Recall(NewReader(span), 1) != decoded {
		t.Fatal("a sent and a decoded value for one instance evicted each other")
	}
}

// TestMemoBounded: a span longer than maxMemoSpan, or one without an
// instance in front, is never kept, and once a slot's buffer has grown,
// storing and recalling allocate nothing.
func TestMemoBounded(t *testing.T) {
	m := NewMemo()
	long := memoSpan(0, 1, string(make([]byte, maxMemoSpan)))
	m.Sent.Store(long, &memoMsg{tag: 1})
	m.Sent.Store([]byte{1}, &memoMsg{tag: 1})
	for _, tab := range []*MemoTable{&m.Sent, &m.Decoded} {
		for i := range tab.slots {
			if tab.slots[i].raw != nil {
				t.Fatal("an over-long span or one without an instance was kept")
			}
		}
	}
	span := memoSpan(1, 0, string(bytes.Repeat([]byte{7}, 200)))
	val := &memoMsg{tag: 1}
	m.Sent.Store(span, val) // grow the slot every span below lands in
	r := NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		span[len(span)-1]++
		m.Sent.Store(span, val)
		*r = Reader{buf: span}
		if m.Sent.Recall(r, 1) != val {
			t.Fatal("stored span missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm memo allocates %v objects per store and recall, want 0", allocs)
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

// TestMemoStats: lookups in the decoded and the sent table are counted
// apart, each as a hit or a miss.
func TestMemoStats(t *testing.T) {
	m := NewMemo()
	span := memoSpan(0, 1, "body")
	m.Decoded.Store(span, &memoMsg{tag: 1})
	m.Sent.Store(span, &memoMsg{tag: 1})
	for _, tag := range []uint8{1, 2, 2} {
		m.Decoded.Recall(NewReader(span), tag)
	}
	for _, tag := range []uint8{1, 1, 2} {
		m.Sent.Recall(NewReader(span), tag)
	}
	want := MemoStats{Hits: 1, Misses: 2, SentHits: 2, SentMisses: 1}
	if got := m.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
