package core

import (
	"bytes"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/race"
	"ezbft/internal/types"
)

// fastPathFrames builds what one conflict-free request puts on the wire —
// its SPECORDER, one SPECREPLY and the 4-reply COMMITFAST — with empty
// dependency sets and fields of the sizes the benchmark's workloads use.
func fastPathFrames() (so *SpecOrder, sr *SpecReply, cf *CommitFast) {
	sig := bytes.Repeat([]byte{0xA5}, 32)
	cmd := types.Command{Client: 3, Timestamp: 70, Op: types.OpPut, Key: "key-000123", Value: bytes.Repeat([]byte{7}, 16)}
	inst := types.InstanceID{Space: 2, Slot: 70}
	so = &SpecOrder{
		Owner: 2, Inst: inst, Seq: 1, LogHash: types.Digest{1}, CmdDigest: cmd.Digest(),
		Req: Request{Cmd: cmd, Orig: noOrig, Sig: sig}, Sig: sig,
	}
	reply := func(rid types.ReplicaID) *SpecReply {
		return &SpecReply{
			Owner: 2, Inst: inst, Seq: 1, CmdDigest: so.CmdDigest, Client: cmd.Client, Timestamp: cmd.Timestamp,
			Replica: rid, Result: types.Result{OK: true}, SO: so, Sig: sig,
		}
	}
	cf = &CommitFast{Client: cmd.Client, Inst: inst}
	for rid := types.ReplicaID(0); rid < 4; rid++ {
		cf.Cert = append(cf.Cert, reply(rid))
	}
	return so, reply(1), cf
}

// TestFastPathDecodeAllocations pins what decoding a conflict-free request's
// messages costs, object by object, so that a dependency set, a reader or a
// per-reply SPECORDER copy creeping back in shows up as a count:
//
//	SPECORDER   4: the message, its signature, the request's value and
//	               signature (the key is a string: 1 more)
//	SPECREPLY   +2 on top of its embedded SPECORDER: the message and its
//	               signature (an OK result has no value)
//	COMMITFAST  the message, the certificate slice, 4 × (reply + signature)
//	               and one shared SPECORDER
func TestFastPathDecodeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	so, sr, cf := fastPathFrames()
	const specOrder = 5
	for _, tc := range []struct {
		name string
		msg  codec.Message
		want float64
	}{
		{"SPECORDER", so, specOrder},
		{"SPECREPLY", sr, 2 + specOrder},
		{"COMMITFAST", cf, 2 + 4*2 + specOrder},
	} {
		frame := codec.Marshal(tc.msg)
		got := testing.AllocsPerRun(200, func() {
			if _, err := codec.Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("decoding a %s allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
}
