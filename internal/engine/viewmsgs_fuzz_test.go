package engine_test

import (
	"bytes"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/fab"
	"ezbft/internal/pbft"
	"ezbft/internal/types"
	"ezbft/internal/zyzzyva"
)

// viewTags are PBFT's, Zyzzyva's and FaB's VIEW-CHANGE and NEW-VIEW tags.
var viewTags = []uint8{36, 37, 46, 47, 54, 55}

// FuzzViewMessages decodes arbitrary bytes as each sequenced protocol's
// VIEW-CHANGE and NEW-VIEW (the tag byte is folded onto one of the six): no
// input panics the decoder, the counts it reads from the input stay within
// its bounds, and an accepted message re-marshals to exactly its own bytes,
// nested frames, certificates and checkpoint proofs included.
func FuzzViewMessages(f *testing.F) {
	for i, m := range viewSeeds() {
		f.Add(append([]byte{byte(i)}, codec.Marshal(m)[1:]...))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		frame = append([]byte{viewTags[int(frame[0])%len(viewTags)]}, frame[1:]...)
		m, err := codec.Unmarshal(frame)
		if err != nil {
			return
		}
		if got := codec.Marshal(m); !bytes.Equal(got, frame) {
			t.Fatalf("%T accepted from %x re-marshals to %x", m, frame, got)
		}
		changes := []*engine.ViewChange{}
		switch m := m.(type) {
		case *engine.ViewChange:
			changes = append(changes, m)
		case *engine.NewView:
			if len(m.Changes) > engine.MaxViewProof {
				t.Fatalf("a NEW-VIEW decoded %d VIEW-CHANGEs", len(m.Changes))
			}
			changes = m.Changes
		default:
			t.Fatalf("tag %d decoded a %T", frame[0], m)
		}
		for _, vc := range changes {
			if len(vc.Entries) > engine.MaxViewSlots || len(vc.Proof) > engine.MaxViewProof {
				t.Fatalf("a VIEW-CHANGE decoded %d entries and %d proof votes", len(vc.Entries), len(vc.Proof))
			}
			for _, e := range vc.Entries {
				if len(e.Cert) > engine.MaxCertVotes {
					t.Fatalf("an entry decoded %d certificate votes", len(e.Cert))
				}
			}
		}
	})
}

// viewSeeds are a VIEW-CHANGE and a NEW-VIEW per protocol, in viewTags'
// order, with frames, certificates, a certified no-op and a proof.
func viewSeeds() []codec.Message {
	cmd := func(ts uint64) types.Command {
		return types.Command{Client: 1, Timestamp: ts, Op: types.OpPut, Key: "k", Value: []byte("v")}
	}
	sig := []byte("signature")
	proof := []*engine.Checkpoint{{Seq: 8, Digest: types.Digest{8}, Replica: 2, Sig: sig}}
	pair := func(e ...engine.ViewEntry) []codec.Message {
		vc := &engine.ViewChange{View: 1, Replica: 2, Mark: 8, Digest: types.Digest{8}, Entries: e, Sig: sig, Proof: proof}
		return []codec.Message{vc, &engine.NewView{View: 1, Replica: 1, Changes: []*engine.ViewChange{vc, vc}, Sig: sig}}
	}
	var seeds []codec.Message
	preq := pbft.Request{Cmd: cmd(9), Sig: sig}
	prep := &pbft.Prepare{View: 0, Seq: 9, CmdDigest: preq.Cmd.Digest(), Replica: 2, Sig: sig}
	seeds = append(seeds, pair(
		engine.ViewEntry{Seq: 9, Frame: &pbft.PrePrepare{Seq: 9, CmdDigest: preq.Cmd.Digest(), Req: preq, Sig: sig}, Cert: []codec.Message{prep, prep}},
		engine.ViewEntry{Seq: 10, Cert: []codec.Message{prep, prep}})...)
	zreq := zyzzyva.Request{Cmd: cmd(9), Sig: sig}
	sr := &zyzzyva.SpecResponse{Seq: 9, CmdDigest: zreq.Cmd.Digest(), Client: 1, Timestamp: 9, Replica: 2, Sig: sig}
	seeds = append(seeds, pair(engine.ViewEntry{Seq: 9, Frame: &zyzzyva.OrderReq{Seq: 9, Req: zreq, Sig: sig}, Cert: []codec.Message{sr, sr, sr}})...)
	freq := fab.Request{Cmd: cmd(9), Sig: sig}
	acc := &fab.Accept{Seq: 9, Replica: 2, Sig: sig}
	seeds = append(seeds, pair(engine.ViewEntry{Seq: 9, Frame: &fab.Propose{Seq: 9, Req: freq, Batch: []fab.Request{freq}, Sig: sig}, Cert: []codec.Message{acc, acc, acc}})...)
	return seeds
}
