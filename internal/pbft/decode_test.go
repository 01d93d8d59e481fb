package pbft

import (
	"bytes"
	"fmt"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/race"
	"ezbft/internal/types"
)

func sampleReqs(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			Cmd: types.Command{Client: types.ClientID(i), Timestamp: uint64(i + 1), Op: types.OpPut,
				Key: fmt.Sprintf("k%d", i), Value: []byte("value")},
			Sig: bytes.Repeat([]byte{byte(i)}, 32),
		}
	}
	return out
}

// decodeAllocs round-trips m and returns what one decode allocates.
func decodeAllocs(t *testing.T, m codec.Message) float64 {
	t.Helper()
	frame := codec.Marshal(m)
	out, err := codec.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(codec.Marshal(out), frame) {
		t.Fatalf("%T: round trip not byte-identical", m)
	}
	return testing.AllocsPerRun(50, func() { _, _ = codec.Unmarshal(frame) })
}

// TestEmbeddedRequestsDecodeInPlace: a request inside a batched PRE-PREPARE,
// the PRE-PREPARE a VIEW-CHANGE reports or a CATCHUP-RESP suffix decodes straight into
// its slot of the enclosing slice, so each costs one allocation fewer than a
// top-level REQUEST, which keeps its one *Request.
func TestEmbeddedRequestsDecodeInPlace(t *testing.T) {
	reqs := sampleReqs(10)
	prePrepare := func(k int) codec.Message {
		return &PrePrepare{View: 1, Seq: 2, Req: reqs[0], Batch: reqs[1 : 1+k], Sig: []byte("sig")}
	}
	viewChange := func(k int) codec.Message {
		// Decoded from a frame, so the VIEW-CHANGE carries PBFT's tag.
		w := codec.NewWriter(256)
		w.Uint8(viewTags.ViewChange)
		(&engine.ViewChange{View: 2, Entries: []engine.ViewEntry{{Seq: 2, Frame: prePrepare(k)}}, Sig: []byte("sig")}).MarshalTo(w)
		m, err := codec.Unmarshal(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cmds := make([]engine.CatchupCmd, len(reqs))
	for i := range reqs {
		cmds[i] = engine.CatchupCmd{Cmd: reqs[i].Cmd, Sig: reqs[i].Sig}
	}
	catchup := func(k int) codec.Message {
		// Decoded from a frame, so the response carries PBFT's tag.
		w := codec.NewWriter(256)
		w.Uint8(logTags.CatchupResp)
		(&engine.CatchupResp{Seq: 4, Suffix: []engine.CatchupSlot{{Seq: 5, Reqs: cmds[:k]}}, Sig: []byte("sig")}).MarshalTo(w)
		m, err := codec.Unmarshal(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	top := decodeAllocs(t, &reqs[0])
	for name, build := range map[string]func(int) codec.Message{
		"preprepare": prePrepare, "viewchange": viewChange, "catchup-resp": catchup,
	} {
		few, many := decodeAllocs(t, build(2)), decodeAllocs(t, build(9))
		if race.Enabled {
			continue // allocation counts differ under -race; the round trips above still ran
		}
		if perReq := (many - few) / 7; perReq != top-1 {
			t.Errorf("%s: an embedded request costs %v allocations, a top-level REQUEST %v; want one fewer", name, perReq, top)
		}
	}
}
