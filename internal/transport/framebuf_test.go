package transport

import (
	"bytes"
	"sync/atomic"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/race"
	"ezbft/internal/types"
)

// blobMsg carries a payload of any size (tag 252 reserved for this test).
type blobMsg struct{ B []byte }

func (m *blobMsg) Tag() uint8                { return 252 }
func (m *blobMsg) MarshalTo(w *codec.Writer) { w.Blob(m.B) }

func init() {
	codec.Register(252, "transport.blobMsg", func(r *codec.Reader) (codec.Message, error) {
		return &blobMsg{B: r.Blob()}, r.Err()
	})
}

const largeFrame = 1 << 20

// TestReadFrameIntoDropsLargeBuffer: the per-connection read buffer grows
// for a large frame and is let go before the next one, so one catch-up
// response does not pin its size for the connection's lifetime.
func TestReadFrameIntoDropsLargeBuffer(t *testing.T) {
	var wire bytes.Buffer
	for _, n := range []int{100, largeFrame, 100, 5000, 100} {
		if err := writeFrame(&wire, bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, frameBufSize)
	bp := &buf
	wantCap := []func(c int) bool{
		func(c int) bool { return c == frameBufSize },
		func(c int) bool { return c >= largeFrame },
		func(c int) bool { return c == frameBufSize }, // dropped, not kept
		func(c int) bool { return c >= 5000 && c <= maxKeptFrame },
		func(c int) bool { return c >= 5000 && c <= maxKeptFrame }, // moderate growth is kept
	}
	for i, ok := range wantCap {
		frame, err := readFrameInto(&wire, bp)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(frame) == 0 || frame[0] != byte(len(frame)) || frame[len(frame)-1] != byte(len(frame)) {
			t.Fatalf("frame %d: wrong contents (%d bytes)", i, len(frame))
		}
		if !ok(cap(*bp)) {
			t.Fatalf("after frame %d of %d bytes the connection holds a %d-byte buffer", i, len(frame), cap(*bp))
		}
	}
}

// TestReadFrameIntoAllocations: reading a small frame into a warm
// connection buffer allocates nothing, the header included.
func TestReadFrameIntoAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	var wire bytes.Buffer
	if err := writeFrame(&wire, bytes.Repeat([]byte{7}, 300)); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()
	var rd bytes.Reader
	buf := make([]byte, 0, frameBufSize)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		if got, err := readFrameInto(&rd, &buf); err != nil || len(got) != 300 {
			t.Fatalf("read %d bytes: %v", len(got), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("readFrameInto allocates %.1f times per small frame", allocs)
	}
}

// TestTCPPeerLargeFrameNotPooled sends one 1 MiB frame followed by small
// ones over loopback (Send and SendAll) and checks that no buffer of that
// size is left circulating in the frame pool. (A sync.Pool may hide a
// buffer on another P, so the check can miss a regression, never invent
// one.)
func TestTCPPeerLargeFrameNotPooled(t *testing.T) {
	var small, large atomic.Int32
	recv, err := NewTCPPeer(types.ReplicaNode(1), "127.0.0.1:0", nil, func(_ types.NodeID, msg codec.Message) {
		if len(msg.(*blobMsg).B) >= largeFrame {
			large.Add(1)
		} else {
			small.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewTCPPeer(types.ReplicaNode(0), "127.0.0.1:0",
		map[types.NodeID]string{types.ReplicaNode(1): recv.Addr()}, func(types.NodeID, codec.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	// noLargePooled takes buffers from the pool the way the next sends
	// would: right after a send the first one is the buffer that send put
	// back. None may be a grown 1 MiB buffer.
	noLargePooled := func(after string) {
		t.Helper()
		for i := 0; i < 16; i++ {
			if bp := framePool.Get().(*[]byte); cap(*bp) > maxKeptFrame {
				t.Fatalf("after %s the frame pool holds a %d-byte buffer", after, cap(*bp))
			}
		}
	}
	from, to := types.ReplicaNode(0), types.ReplicaNode(1)
	big := &blobMsg{B: make([]byte, largeFrame)}
	if err := send.Send(from, to, big); err != nil {
		t.Fatal(err)
	}
	noLargePooled("Send")
	if err := send.SendAll(from, []types.NodeID{to}, big); err != nil {
		t.Fatal(err)
	}
	noLargePooled("SendAll")
	for i := 0; i < 8; i++ {
		if err := send.Send(from, to, &blobMsg{B: []byte("small")}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return large.Load() == 2 && small.Load() == 8 })
	noLargePooled("the receiver read them")
}
