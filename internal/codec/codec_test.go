package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(math.MaxUint64)
	w.Uint8(7)
	w.Bool(true)
	w.Bool(false)
	w.Int32(-5)
	w.Int32(math.MaxInt32)
	w.Int32(math.MinInt32)
	w.Blob([]byte("hello"))
	w.Blob(nil)
	w.String("world")
	w.Bytes32([32]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uint8(); got != 7 {
		t.Fatalf("uint8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools corrupted")
	}
	if got := r.Int32(); got != -5 {
		t.Fatalf("int32 = %d", got)
	}
	if got := r.Int32(); got != math.MaxInt32 {
		t.Fatalf("int32 = %d", got)
	}
	if got := r.Int32(); got != math.MinInt32 {
		t.Fatalf("int32 = %d", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("blob = %q", got)
	}
	if got := r.Blob(); got != nil {
		t.Fatalf("empty blob = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Bytes32(); got != ([32]byte{1, 2, 3}) {
		t.Fatalf("bytes32 = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestReaderShortBuffer(t *testing.T) {
	w := NewWriter(0)
	w.Blob([]byte("hello"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Blob()
		if r.Err() == nil {
			t.Fatalf("no error decoding truncated buffer at %d", cut)
		}
	}
}

func TestReaderTrailingData(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1)
	w.Uvarint(2)
	r := NewReader(w.Bytes())
	r.Uvarint()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish accepted trailing data")
	}
}

// TestBoolIsCanonical: only 0 and 1 decode as booleans, so a decoded
// message re-marshals to its own bytes.
func TestBoolIsCanonical(t *testing.T) {
	for b, want := range map[byte]bool{0: false, 1: true} {
		if r := NewReader([]byte{b}); r.Bool() != want || r.Err() != nil {
			t.Errorf("Bool(%d) = %v, %v", b, !want, r.Err())
		}
	}
	for _, b := range []byte{2, 0x80, 0xff} {
		if r := NewReader([]byte{b}); r.Bool() || !errors.Is(r.Err(), ErrBadBool) {
			t.Errorf("Bool(%#x): err %v, want ErrBadBool", b, r.Err())
		}
	}
}

func TestReaderErrorSticky(t *testing.T) {
	r := NewReader(nil)
	r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty buffer")
	}
	r.Uint8()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestCommandRoundTrip(t *testing.T) {
	f := func(client int32, ts uint64, op uint8, key string, value []byte) bool {
		in := types.Command{
			Client:    types.ClientID(client),
			Timestamp: ts,
			Op:        types.Op(op),
			Key:       key,
			Value:     value,
		}
		w := NewWriter(0)
		w.Command(in)
		r := NewReader(w.Bytes())
		out := r.Command()
		if r.Finish() != nil {
			return false
		}
		return out.Client == in.Client && out.Timestamp == in.Timestamp &&
			out.Op == in.Op && out.Key == in.Key && bytes.Equal(out.Value, in.Value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceSetRoundTripAndDeterminism(t *testing.T) {
	s := types.NewInstanceSet(
		types.InstanceID{Space: 3, Slot: 9},
		types.InstanceID{Space: 0, Slot: 1},
		types.InstanceID{Space: 1, Slot: 400},
	)
	w1 := NewWriter(0)
	w1.InstanceSet(s)
	// Encoding must be identical across calls despite map iteration order.
	for i := 0; i < 20; i++ {
		w2 := NewWriter(0)
		w2.InstanceSet(s)
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("instance set encoding not deterministic")
		}
	}
	r := NewReader(w1.Bytes())
	out := r.InstanceSet()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(s) {
		t.Fatalf("round trip mismatch: %v vs %v", out, s)
	}
}

// TestInstanceSetEncodingBySize pins the layout (count, then members in
// (space, slot) order) whatever order the members were inserted in, and
// that writing a set of any size into a warm writer allocates nothing.
func TestInstanceSetEncodingBySize(t *testing.T) {
	ids := []types.InstanceID{{Space: 0, Slot: 7}, {Space: 0, Slot: 300}, {Space: 2, Slot: 1}}
	for n := 0; n <= len(ids); n++ {
		want := NewWriter(0)
		want.Uvarint(uint64(n))
		for _, id := range ids[:n] {
			want.Instance(id)
		}
		// Insert in reverse so insertion order does not match.
		s := types.NewInstanceSet()
		for i := n - 1; i >= 0; i-- {
			s.Add(ids[i])
		}
		got := NewWriter(64)
		got.InstanceSet(s)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d members: encoded %x, want %x", n, got.Bytes(), want.Bytes())
		}
		if allocs := testing.AllocsPerRun(100, func() { got.Reset(); got.InstanceSet(s) }); allocs != 0 {
			t.Errorf("%d members: encoding allocates %v times", n, allocs)
		}
	}
}

// TestInstanceSetDecodeAllocations: an empty dependency set — every set of a
// conflict-free workload — decodes to nil without touching the heap, and a
// non-empty one costs its one slice.
func TestInstanceSetDecodeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for n, want := range []float64{0, 1, 1, 1} {
		w := NewWriter(0)
		w.InstanceSet(types.NewInstanceSet([]types.InstanceID{{Space: 0, Slot: 7}, {Space: 1, Slot: 300}, {Space: 2, Slot: 1}}[:n]...))
		var r Reader
		var out types.InstanceSet
		allocs := testing.AllocsPerRun(100, func() {
			r = Reader{buf: w.Bytes()}
			out = r.InstanceSet()
		})
		if r.Finish() != nil || len(out) != n || (n == 0 && out != nil) {
			t.Fatalf("%d members: decoded %v (%v)", n, out, r.Err())
		}
		if allocs != want {
			t.Errorf("%d members: decoding allocates %v times, want %v", n, allocs, want)
		}
	}
}

// TestInstanceSetDecodeRejectsNonCanonical: members that arrive unsorted or
// repeated (no encoder here writes them so, but a frame is outside input) fail
// the decode, so nothing downstream ever holds a set that breaks the
// sorted-unique invariant; the canonical order decodes. Truncated input and a
// count the frame cannot hold are rejected too.
func TestInstanceSetDecodeRejectsNonCanonical(t *testing.T) {
	a, b, c := types.InstanceID{Space: 0, Slot: 9}, types.InstanceID{Space: 1, Slot: 2}, types.InstanceID{Space: 3, Slot: 1}
	for name, tc := range map[string]struct {
		members []types.InstanceID
		ok      bool
	}{
		"sorted":            {[]types.InstanceID{a, b, c}, true},
		"reversed":          {[]types.InstanceID{c, b, a}, false},
		"repeated":          {[]types.InstanceID{a, a, b, c}, false},
		"repeated last":     {[]types.InstanceID{a, b, c, c}, false},
		"unsorted+repeated": {[]types.InstanceID{b, c, a, b, a}, false},
	} {
		w := NewWriter(0)
		w.Uvarint(uint64(len(tc.members)))
		for _, id := range tc.members {
			w.Instance(id)
		}
		r := NewReader(w.Bytes())
		got := r.InstanceSet()
		switch {
		case tc.ok && (r.Finish() != nil || !slices.Equal(got, types.InstanceSet{a, b, c})):
			t.Fatalf("%s: decoded %v (%v)", name, got, r.Err())
		case !tc.ok && (got != nil || !errors.Is(r.Err(), ErrNonCanonicalSet)):
			t.Fatalf("%s: decoded %v with error %v, want ErrNonCanonicalSet", name, got, r.Err())
		}
	}
	canonical := NewWriter(0)
	canonical.InstanceSet(types.NewInstanceSet(a, b, c))
	full := canonical.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		if out := r.InstanceSet(); out != nil || r.Err() == nil {
			t.Fatalf("set truncated to %d of %d bytes decoded to %v", cut, len(full), out)
		}
	}
}

// TestInstanceSetEncodingMatchesMapModel: for random member lists, with
// repeats and in random order, the encoding is the member count followed by
// the distinct members in (space, slot) order — what sorting a map's keys
// used to produce — and it survives a round trip.
func TestInstanceSetEncodingMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		ids := make([]types.InstanceID, rng.Intn(10))
		model := make(map[types.InstanceID]struct{})
		for i := range ids {
			ids[i] = types.InstanceID{Space: types.ReplicaID(rng.Intn(4)), Slot: uint64(1 + rng.Intn(300))}
			model[ids[i]] = struct{}{}
		}
		distinct := make([]types.InstanceID, 0, len(model))
		for id := range model {
			distinct = append(distinct, id)
		}
		slices.SortFunc(distinct, types.InstanceID.Compare)
		want := NewWriter(0)
		want.Uvarint(uint64(len(distinct)))
		for _, id := range distinct {
			want.Instance(id)
		}
		// Built at once and built member by member.
		built := types.NewInstanceSet(ids...)
		var added types.InstanceSet
		for _, id := range ids {
			added.Add(id)
		}
		for _, s := range []types.InstanceSet{built, added} {
			got := NewWriter(0)
			got.InstanceSet(s)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d: %v encoded %x, want %x", trial, ids, got.Bytes(), want.Bytes())
			}
			r := NewReader(got.Bytes())
			if out := r.InstanceSet(); r.Finish() != nil || !out.Equal(s) {
				t.Fatalf("trial %d: round trip of %v gave %v (%v)", trial, s, out, r.Err())
			}
		}
	}
}

func TestInstanceSetSanityBound(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 30) // absurd count with no entries
	r := NewReader(w.Bytes())
	if out := r.InstanceSet(); out != nil || r.Err() == nil {
		t.Fatal("oversized instance set accepted")
	}
}

type testMsg struct {
	A uint64
	B string
}

func (m *testMsg) Tag() uint8 { return 255 }
func (m *testMsg) MarshalTo(w *Writer) {
	w.Uvarint(m.A)
	w.String(m.B)
}

func init() {
	Register(255, "testMsg", func(r *Reader) (Message, error) {
		return &testMsg{A: r.Uvarint(), B: r.String()}, r.Err()
	})
}

func TestRegistryRoundTrip(t *testing.T) {
	in := &testMsg{A: 42, B: "hi"}
	b := Marshal(in)
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*testMsg)
	if !ok {
		t.Fatalf("decoded wrong type %T", out)
	}
	if got.A != in.A || got.B != in.B {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if EncodedSize(in) != len(b) {
		t.Fatal("EncodedSize inconsistent with Marshal")
	}
}

func TestUnmarshalUnknownTag(t *testing.T) {
	if _, err := Unmarshal([]byte{254}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	b := Marshal(&testMsg{A: 1, B: "x"})
	b = append(b, 0xEE)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestUnmarshalReaderRecycled: Unmarshal's reader comes from a pool, so a
// decode must start clean whatever the previous one left behind (a sticky
// error, a position) and cost only what the decoded message itself costs.
func TestUnmarshalReaderRecycled(t *testing.T) {
	good := Marshal(&testMsg{A: 42})
	for i := 0; i < 3; i++ {
		if _, err := Unmarshal(good[:1]); err == nil {
			t.Fatal("truncated frame accepted")
		}
		m, err := Unmarshal(good)
		if err != nil || m.(*testMsg).A != 42 {
			t.Fatalf("decode after a failed decode: %v, %v", m, err)
		}
	}
	if race.Enabled {
		return // the race detector bypasses sync.Pool
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(good); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("Unmarshal of a fixed-size message allocates %v times, want 1 (the message)", allocs)
	}
}
