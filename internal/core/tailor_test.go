package core

import (
	"bytes"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// TestCertificateTailoredPerDestination: a client sends each replica that
// signed a compact certificate — a COMMITFAST, a compact COMMIT — that
// replica's own reply as the carried one, byte for byte as the replica sent
// it, so the replica's memo turns it into the very value it sent; a replica
// that signed nothing, and every replica sent a COMMIT carrying its replies
// whole, gets the one encoding. Every tailored frame, and the untailored one
// a client of the previous release sends everyone, decodes through the memo
// to a certificate the replica commits and executes, and re-marshals to its
// own bytes.
func TestCertificateTailoredPerDestination(t *testing.T) {
	rig := newPVRig(t)
	for _, tc := range []struct {
		name    string
		mk      func() codec.Message
		signers int  // replicas 0 .. signers-1 signed
		tailors bool // a signer gets its own reply carried
	}{
		{"COMMITFAST", func() codec.Message { return rig.commitFast() }, 4, true},
		{"COMMIT", func() codec.Message { return rig.commit() }, 3, false},
		{"compact COMMIT", func() codec.Message { return rig.compactCommit() }, 3, true},
	} {
		for rid := types.ReplicaID(0); rid < 4; rid++ {
			msg := tc.mk()
			cert, _ := msg.(certified).certificate()
			sent := rig.specReply(rid, cert[0].SO) // what rid sent the client
			memo := codec.NewMemo()
			memo.Sent.Store(specReplyBytes(sent), sent)
			parent := codec.Marshal(msg)
			tailored := codec.AppendMarshalFor(nil, msg, types.ReplicaNode(rid))
			signed := int(rid) < tc.signers
			if tailored[0] != parent[0] || len(tailored) != len(parent) || (rid == 0 || !signed || !tc.tailors) != bytes.Equal(tailored, parent) {
				t.Errorf("%s for replica %d: tailored %x, untailored %x", tc.name, rid, tailored, parent)
			}
			for form, frame := range map[string][]byte{"tailored": tailored, "untailored": parent} {
				out, err := memo.Unmarshal(frame)
				if err != nil {
					t.Fatalf("%s (%s) for replica %d: %v", tc.name, form, rid, err)
				}
				if got := codec.Marshal(out); !bytes.Equal(got, frame) {
					t.Errorf("%s (%s) for replica %d re-marshals to other bytes", tc.name, form, rid)
				}
				got, _ := out.(certified).certificate()
				if own := got[0] == sent; own != (signed && ((tc.tailors && form == "tailored") || rid == 0)) {
					t.Errorf("%s (%s) for replica %d: carries its own reply %v", tc.name, form, rid, own)
				}
				rep := rig.freshReplica(rid)
				rep.Receive(noopCtx{}, types.ClientNode(5), out)
				if s := rep.Stats(); s.DroppedInvalid != 0 || s.FinalExecutions != 1 {
					t.Errorf("%s (%s) at replica %d did not commit and execute: %+v", tc.name, form, rid, s)
				}
			}
		}
	}
}

// TestCatchupAgreesOnTailoredCommits: replicas sent one compact COMMIT, each
// tailored to itself, or as a client of the previous release sends it with
// its signers in the order it picked them, store the same committed entry.
// Their wholesale catch-up responses agree byte for byte, and the entry each
// writes decodes to a certificate a replica commits on.
func TestCatchupAgreesOnTailoredCommits(t *testing.T) {
	rig := newPVRig(t)
	c := rig.compactCommit()
	so := c.Cert[0].SO
	// The previous release's client, leader 2's quorum first: R2's reply
	// carried, the others' signatures out of replica order.
	parent := *c
	parent.Cert = []*SpecReply{rig.specReply(2, so)}
	parent.Sigs = []ReplySig{{Replica: 1, Sig: rig.specReply(1, so).Sig}, {Replica: 0, Sig: c.Cert[0].Sig}}

	var resps []*CatchupResp
	for rid := types.ReplicaID(0); rid < 3; rid++ {
		for _, frame := range [][]byte{
			codec.AppendMarshalFor(nil, c, types.ReplicaNode(rid)),
			codec.Marshal(&parent),
		} {
			sent := rig.specReply(rid, so)
			memo := codec.NewMemo()
			memo.Sent.Store(specReplyBytes(sent), sent)
			out, err := memo.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			h := HistEntry{Inst: c.Inst, Status: HistCommitted, Cmd: so.Req.Cmd, Deps: c.Deps, Seq: c.Seq, Owner: so.Owner,
				SO: so, ClientCommit: out.(*Commit)}
			resps = append(resps, &CatchupResp{Replica: rid, Suffix: []HistEntry{h}})
		}
	}
	for i, a := range resps {
		for _, b := range resps[i+1:] {
			if !catchupAgrees(a, b) {
				t.Fatalf("R%d's and R%d's responses for one committed entry disagree", a.Replica, b.Replica)
			}
		}
	}

	w := codec.NewWriter(512)
	resps[1].Suffix[0].marshalTo(w)
	h, err := decodeHistEntry(codec.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cc := h.ClientCommit; cc.Cert[0].Replica != 0 || len(cc.Sigs) != 2 || cc.Sigs[0].Replica != 1 || cc.Sigs[1].Replica != 2 {
		t.Fatalf("stored certificate is not the lowest signer's reply with the others in replica order: %+v", cc)
	}
	rep := rig.freshReplica(3)
	rep.Receive(noopCtx{}, types.ClientNode(5), h.ClientCommit)
	if s := rep.Stats(); s.DroppedInvalid != 0 || s.FinalExecutions != 1 {
		t.Fatalf("stored certificate does not commit: %+v", s)
	}
}
