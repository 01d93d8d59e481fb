package codec

import (
	"testing"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

// TestWriterPoolReuse: pooled writers come back empty and keep their grown
// capacity across a Get/Put cycle (the property the hot paths rely on).
func TestWriterPoolReuse(t *testing.T) {
	w := GetWriter()
	w.Uvarint(42)
	w.Blob(make([]byte, 2048))
	if w.Len() == 0 {
		t.Fatal("writer did not accumulate")
	}
	PutWriter(w)
	w2 := GetWriter()
	defer PutWriter(w2)
	if w2.Len() != 0 {
		t.Fatal("pooled writer not reset")
	}
}

// TestAppendMarshalMatchesMarshal: the allocation-free framing path must
// produce exactly the bytes Marshal produces, appended to the caller's
// buffer.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	m := &poolMsg{payload: []byte("hello"), n: 7}
	prefix := []byte{0xAA, 0xBB}
	got := AppendMarshal(append([]byte(nil), prefix...), m)
	want := append(append([]byte(nil), prefix...), Marshal(m)...)
	if string(got) != string(want) {
		t.Fatalf("AppendMarshal = %x, want %x", got, want)
	}
	if EncodedSize(m) != len(Marshal(m)) {
		t.Fatal("EncodedSize disagrees with Marshal length")
	}
}

type poolMsg struct {
	payload []byte
	n       uint64
}

func (m *poolMsg) Tag() uint8 { return 250 }
func (m *poolMsg) MarshalTo(w *Writer) {
	w.Uvarint(m.n)
	w.Blob(m.payload)
}

// TestAppendMarshalAllocations: framing a message into a buffer that already
// has room allocates nothing — the Writer it marshals through does not move
// to the heap on every call — and neither does a per-destination encoding.
func TestAppendMarshalAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := &poolMsg{payload: []byte("hello"), n: 7}
	tm := &tailoredMsg{poolMsg{payload: []byte("hello"), n: 7}}
	buf := make([]byte, 0, 256)
	for _, tc := range []struct {
		name   string
		encode func() []byte
	}{
		{"AppendMarshal", func() []byte { return AppendMarshal(buf[:0], m) }},
		{"AppendMarshalFor", func() []byte { return AppendMarshalFor(buf[:0], tm, 3) }},
	} {
		tc.encode() // warm the writer pool
		if got := testing.AllocsPerRun(200, func() { buf = tc.encode() }); got != 0 {
			t.Errorf("%s into a warm buffer allocates %v objects, want 0", tc.name, got)
		}
	}
}

// TestAppendMarshalFor: a Tailored message is framed with its encoding for
// the destination, any other message with its one encoding.
func TestAppendMarshalFor(t *testing.T) {
	m := &poolMsg{payload: []byte("hello"), n: 7}
	if got, want := AppendMarshalFor(nil, m, 3), Marshal(m); string(got) != string(want) {
		t.Fatalf("AppendMarshalFor(untailored) = %x, want %x", got, want)
	}
	tm := &tailoredMsg{*m}
	got := AppendMarshalFor([]byte{0xAA}, tm, 3)
	want := append([]byte{0xAA, tm.Tag()}, Marshal(m)[1:]...)
	want = append(want, 3)
	if string(got) != string(want) {
		t.Fatalf("AppendMarshalFor(tailored, 3) = %x, want %x", got, want)
	}
}

// tailoredMsg is poolMsg followed by its destination.
type tailoredMsg struct{ poolMsg }

func (m *tailoredMsg) MarshalFor(w *Writer, to types.NodeID) {
	m.MarshalTo(w)
	w.Uvarint(uint64(to))
}
