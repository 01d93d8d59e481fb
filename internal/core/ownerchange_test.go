package core

import (
	"bytes"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
)

// ownerChange builds replica from's signed OWNERCHANGE reporting hist from
// replica 1's space (owner number 1) to the next owner, replica 2.
func (r *pvRig) ownerChange(from types.ReplicaID, hist ...HistEntry) *OwnerChange {
	oc := &OwnerChange{Suspect: 1, NewOwner: 2, Replica: from, History: hist}
	oc.Sig = engine.SignBody(r.replicaAuth(from), oc)
	return oc
}

// newOwner builds replica from's signed NEWOWNER for replica 1's space.
func (r *pvRig) newOwner(from types.ReplicaID, proof ...*OwnerChange) *NewOwnerMsg {
	m := &NewOwnerMsg{Suspect: 1, NewOwnerNum: 2, Replica: from, Proof: proof}
	m.Sig = engine.SignBody(r.replicaAuth(from), m)
	return m
}

// TestNewOwnerNeedsQuorum: a NEWOWNER changes a replica's state only by
// what the replica derives from the proof itself. Replica 3 holds replica
// 1's first proposal spec-ordered; a client's COMMIT for it reached
// replica 0 alone. A NEWOWNER from a replica that is not the next owner, or
// with fewer than 2f+1 valid OWNERCHANGEs, changes nothing. A Byzantine
// next owner that tries to add a committed PUT from a client that does not
// exist, drop the committed entry or alter its dependencies has only the
// proof to do it with: its own history, and its choice of 2f+1 histories.
// In every case replica 3 installs the proposal with the COMMIT's decision,
// executes it, and executes nothing else.
func TestNewOwnerNeedsQuorum(t *testing.T) {
	rig := newPVRig(t)
	so := rig.specOrder()
	cc := rig.commit()
	entry := func(status HistStatus, c *Commit) HistEntry {
		return HistEntry{
			Inst: so.Inst, Status: status, Cmd: so.Req.Cmd, Deps: so.Deps,
			Seq: so.Seq, Owner: so.Owner, SO: so, ClientCommit: c,
		}
	}
	committed, ordered := entry(HistCommitted, cc), entry(HistSpecOrdered, nil)
	forged := HistEntry{
		Inst: types.InstanceID{Space: 1, Slot: 2}, Status: HistCommitted,
		Cmd:  types.Command{Client: 7, Timestamp: 1, Op: types.OpPut, Key: "x", Value: []byte("forged")},
		Deps: types.NewInstanceSet(), Seq: 2, Owner: so.Owner,
	}
	altered := entry(HistCommitted, nil)
	altered.Deps, altered.Seq = types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 7}), 5
	badSig := rig.ownerChange(3, ordered)
	badSig.Sig[0] ^= 0xFF

	honest := []*OwnerChange{rig.ownerChange(0, committed), rig.ownerChange(2, ordered), rig.ownerChange(3, ordered)}
	cases := []struct {
		name    string
		msg     *NewOwnerMsg
		adopted bool
	}{
		{"not-the-next-owner", rig.newOwner(0, honest...), false},
		{"two-valid-changes", rig.newOwner(2, honest[0], honest[1], rig.ownerChange(0), badSig), false},
		{"forged-command", rig.newOwner(2, honest[0], rig.ownerChange(2, ordered, forged), honest[2]), true},
		{"dropped-commit", rig.newOwner(2, rig.ownerChange(1, ordered), rig.ownerChange(2), honest[2]), true},
		{"altered-deps", rig.newOwner(2, honest[0], rig.ownerChange(2, altered), honest[2]), true},
		{"honest", rig.newOwner(2, honest...), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, pool := range []bool{false, true} {
				rep := rig.freshReplica(3)
				rep.Receive(noopCtx{}, types.ReplicaNode(1), so)
				msg := roundTrip(t, tc.msg).(*NewOwnerMsg)
				if pool && !InboundVerifier(rig.replicaAuth(3), rig.n)(msg) {
					t.Fatal("the pool refused a NEWOWNER its sender signed")
				}
				rep.Receive(noopCtx{}, types.ReplicaNode(tc.msg.Replica), msg)

				app := rep.cfg.App.(*kvstore.Store)
				if x, ok := app.Get("x"); ok {
					t.Fatalf("pool=%v: executed x=%q, a command no client signed", pool, x)
				}
				e := rep.log.get(so.Inst)
				if !tc.adopted {
					if rep.OwnerNumber(1) != 1 || rep.Frozen(1) || e == nil || e.status != StatusSpecOrdered {
						t.Fatalf("pool=%v: the NEWOWNER took effect (owner number %d, frozen %v)", pool, rep.OwnerNumber(1), rep.Frozen(1))
					}
					continue
				}
				if rep.OwnerNumber(1) != 2 || !rep.Frozen(1) {
					t.Fatalf("pool=%v: owner change not adopted (owner number %d, frozen %v)", pool, rep.OwnerNumber(1), rep.Frozen(1))
				}
				if e == nil || e.status != StatusExecuted || e.cmd.Digest() != so.Req.Cmd.Digest() || !e.deps.Equal(cc.Deps) || e.seq != cc.Seq {
					t.Fatalf("pool=%v: slot 1 holds %+v, want the proposal executed with deps %v and seq %d", pool, e, cc.Deps, cc.Seq)
				}
				if v, ok := app.Get("k"); !ok || string(v) != "v" {
					t.Fatalf("pool=%v: k=%q, want the committed PUT's value", pool, v)
				}
			}
		})
	}
}

// TestOwnerChangeBaseFromProof: an owner change plans only the slots above
// the highest stable mark its proof proves, whatever the planning replica
// truncated itself. Replicas 0, 1 and 2 checkpointed replica 1's space at
// slot 2; replica 0 truncated it, and replica 2, the next owner, restarted
// with nothing. Replica 3 lags: it holds slot 2 committed by a COMMITFAST
// and not yet executed (its dependency has not arrived). Had the next
// owner planned from its own truncation point (0), the one history
// reporting slot 2 would fall short of Condition 2 and slot 2 would become
// a no-op over replica 3's commit.
func TestOwnerChangeBaseFromProof(t *testing.T) {
	rig := newPVRig(t)
	so := rig.specOrder()
	so.Inst.Slot, so.Seq, so.Req = 2, 2, *rig.request(2)
	so.CmdDigest = BatchDigest(so.CmdDigests())
	so.Sig = engine.SignBody(rig.replicaAuth(1), so)

	lagging := rig.freshReplica(3)
	lagging.log.put(&entry{
		inst: so.Inst, owner: so.Owner, cmd: so.Req.Cmd, cmdDigest: so.CmdDigest,
		deps: types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 9}), seq: so.Seq,
		status: StatusCommitted, so: so,
	})

	digest := types.Digest{2}
	checkpointed := rig.ownerChange(0)
	checkpointed.Mark, checkpointed.Digest = 2, digest
	for _, voter := range []types.ReplicaID{0, 1, 2} {
		v := &CheckpointMsg{Space: 1, Slot: 2, Digest: digest, Replica: voter}
		v.Sig = engine.SignBody(rig.replicaAuth(voter), v)
		checkpointed.Votes = append(checkpointed.Votes, v)
	}
	checkpointed.Sig = engine.SignBody(rig.replicaAuth(0), checkpointed)

	next := rig.freshReplica(2)
	ctx := &captureCtx{}
	for _, oc := range []*OwnerChange{checkpointed, rig.ownerChange(1), rig.ownerChange(3, lagging.historyOf(1, 0)...)} {
		next.Receive(ctx, types.ReplicaNode(oc.Replica), roundTrip(t, oc))
	}
	var announced *NewOwnerMsg
	for _, m := range ctx.sends {
		if no, ok := m.(*NewOwnerMsg); ok {
			announced = no
		}
	}
	if announced == nil || next.OwnerNumber(1) != 2 {
		t.Fatalf("the next owner did not announce and adopt the change (owner number %d)", next.OwnerNumber(1))
	}
	for slot := uint64(1); slot <= 2; slot++ {
		if e := next.log.get(types.InstanceID{Space: 1, Slot: slot}); e != nil {
			t.Errorf("the next owner installed %v at slot %d, at or below the proof's stable mark", e.cmd, slot)
		}
	}

	lagging.Receive(noopCtx{}, types.ReplicaNode(2), roundTrip(t, announced))
	if lagging.OwnerNumber(1) != 2 {
		t.Fatalf("replica 3 did not adopt the change (owner number %d)", lagging.OwnerNumber(1))
	}
	if e := lagging.log.get(so.Inst); e == nil || e.cmd.Digest() != so.Req.Cmd.Digest() || e.status != StatusCommitted {
		t.Fatalf("replica 3's commit at slot 2 became %+v", e)
	}
}

// FuzzOwnerChangeMessages: STARTOWNERCHANGE, OWNERCHANGE (with a stable
// checkpoint and its votes) and NEWOWNER frames decode without panicking,
// and every frame accepted re-marshals to the bytes it came from.
func FuzzOwnerChangeMessages(f *testing.F) {
	tags := []uint8{tagStartOwnerChange, tagOwnerChange, tagNewOwner}
	rig := newPVRig(nil) // builds frames only
	so := rig.specOrder()
	oc := &OwnerChange{
		Suspect: 1, NewOwner: 2, Replica: 3, Mark: 4, Digest: types.Digest{4},
		Votes: []*CheckpointMsg{{Space: 1, Slot: 4, Digest: types.Digest{4}, Replica: 0, Sig: []byte{1}}},
		History: []HistEntry{
			{Inst: so.Inst, Status: HistSpecOrdered, Cmd: so.Req.Cmd, Deps: so.Deps, Seq: 1, Owner: 1, SO: so},
			{Inst: types.InstanceID{Space: 1, Slot: 5}, Status: HistCommitted, Cmd: so.Req.Cmd, Owner: 1, ClientCommit: rig.compactCommit()},
		},
		Sig: []byte{6},
	}
	for _, m := range []codec.Message{
		&StartOwnerChange{Suspect: 1, Owner: 1, Replica: 2, Sig: []byte{5}},
		oc,
		&OwnerChange{Suspect: 1, NewOwner: 2, Replica: 0},
		&NewOwnerMsg{Suspect: 1, NewOwnerNum: 2, Replica: 2, Proof: []*OwnerChange{oc, oc}, Sig: []byte{7}},
	} {
		frame := codec.Marshal(m)
		for i, tag := range tags {
			if tag == frame[0] {
				f.Add(uint8(i), frame[1:])
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		frame := append([]byte{tags[int(kind)%len(tags)]}, body...)
		m, err := codec.Unmarshal(frame)
		if err != nil {
			return
		}
		if got := codec.Marshal(m); !bytes.Equal(got, frame) {
			t.Fatalf("%T accepted from %x re-marshals to %x", m, frame, got)
		}
	})
}
