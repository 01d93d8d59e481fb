package zyzzyva

import (
	"bytes"
	"testing"

	"ezbft/internal/codec"
)

// FuzzOrderingFrames decodes arbitrary bytes as Zyzzyva's REQUEST and both
// OrderReq layouts (the tag byte is folded onto one of the three): no input
// panics the decoder, an accepted one re-marshals to exactly its own bytes,
// and a decoded OrderReq orders between 1 and maxBatch-1 requests — the
// bound the transport-side verifier enforces — with the batched layout
// carrying at least two. Seeded from decode_test.go's frames.
func FuzzOrderingFrames(f *testing.F) {
	reqs := sampleReqs(4)
	f.Add(codec.Marshal(&reqs[0]))
	f.Add(codec.Marshal(&OrderReq{View: 1, Seq: 2, Req: reqs[0], Sig: []byte("sig")}))
	f.Add(codec.Marshal(&OrderReq{View: 1, Seq: 2, Req: reqs[0], Batch: reqs[1:], Sig: []byte("sig")}))
	tags := []uint8{tagRequest, tagOrderReq, tagOrderReqBatch}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		frame = append([]byte{tags[int(frame[0])%len(tags)]}, frame[1:]...)
		m, err := codec.Unmarshal(frame)
		if err != nil {
			return
		}
		if got := codec.Marshal(m); !bytes.Equal(got, frame) {
			t.Fatalf("%T accepted from %x re-marshals to %x", m, frame, got)
		}
		if o, ok := m.(*OrderReq); ok {
			if n := o.BatchSize(); n < 1 || n > maxBatch-1 || (frame[0] == tagOrderReqBatch) != (n > 1) {
				t.Fatalf("tag %d decoded a batch of %d", frame[0], n)
			}
		}
	})
}
