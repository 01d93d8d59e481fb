package core

import (
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// TestHostileCertificates: the client assembles the commit certificate, so a
// Byzantine one can send any of these. Each must be dropped as invalid —
// from the wire or handed over in memory, through the verifier pool or
// straight to the loop — leaving no entry and the state untouched, while the
// honest certificate next to them commits and executes.
func TestHostileCertificates(t *testing.T) {
	rig := newPVRig(t)
	so := rig.specOrder()
	sigOf := func(rid types.ReplicaID, edit func(*SpecReply)) ReplySig {
		sr := rig.specReply(rid, so)
		edit(sr)
		return ReplySig{Replica: rid, Sig: engine.SignBody(rig.replicaAuth(rid), sr)}
	}
	fast := func(edit func(*CommitFast)) func() codec.Message {
		return func() codec.Message {
			m := rig.commitFast()
			edit(m)
			return m
		}
	}
	// selfSigned names the client's own address as a signer: ids are checked
	// as replica ids before any key is looked up under them.
	selfSigned := func(m *CommitFast) {
		id := types.ReplicaID(types.ClientNode(5))
		w := codec.NewWriter(128)
		m.Cert[0].marshalBodyAs(w, id)
		m.Sigs[2] = ReplySig{Replica: id, Sig: rig.clientAuth(5).Sign(w.Bytes())}
	}
	cases := []struct {
		name     string
		mk       func() codec.Message
		inMemory bool // has no encoding
	}{
		{"same-pair-twice", fast(func(m *CommitFast) { m.Sigs[2] = m.Sigs[1] }), false},
		{"pair-names-the-element", fast(func(m *CommitFast) { m.Sigs[0] = ReplySig{Replica: 0, Sig: m.Cert[0].Sig} }), false},
		{"replica-minus-one", fast(func(m *CommitFast) { m.Sigs[2].Replica = -1 }), false},
		{"replica-n", fast(func(m *CommitFast) { m.Sigs[2].Replica = 4 }), false},
		{"client-address-as-replica", fast(selfSigned), false},
		{"n-minus-one-signers", fast(func(m *CommitFast) { m.Sigs = m.Sigs[:2] }), false},
		{"pair-signs-other-deps", fast(func(m *CommitFast) {
			m.Sigs[1] = sigOf(2, func(sr *SpecReply) { sr.Deps = types.NewInstanceSet(types.InstanceID{Space: 2, Slot: 9}) })
		}), false},
		{"pair-signs-other-result", fast(func(m *CommitFast) {
			m.Sigs[1] = sigOf(2, func(sr *SpecReply) { sr.Result = types.Result{OK: true, Value: []byte("other")} })
		}), false},
		{"element-signature-forged", fast(func(m *CommitFast) { m.Cert[0].Sig[0] ^= 0xFF }), false},
		{"reply-for-another-instance", fast(func(m *CommitFast) { m.Inst.Slot++ }), false},
		{"no-element", fast(func(m *CommitFast) { m.Cert = nil }), true},
		{"two-elements", fast(func(m *CommitFast) { m.Cert = append(m.Cert, rig.specReply(1, so)) }), true},
		{"commit-with-the-leaders-other-proposal", func() codec.Message {
			// Replica 1 equivocates: the same instance, another request. The
			// replies vouch for the first; the one SPECORDER shipped is the other.
			other := rig.specOrder()
			other.Req = *rig.request(2)
			other.CmdDigest = BatchDigest(other.CmdDigests())
			other.Sig = engine.SignBody(rig.replicaAuth(1), other)
			m := rig.commit()
			m.Cert[0].SO = other
			return m
		}, false},
	}

	deliver := func(msg codec.Message, pool bool) (*Replica, bool) {
		rep := rig.freshReplica(3)
		if pool && !InboundVerifier(rig.replicaAuth(3), rig.n)(msg) {
			return rep, false
		}
		rep.Receive(noopCtx{}, types.ClientNode(5), msg)
		return rep, true
	}
	empty := rig.freshReplica(3).cfg.App.Digest()

	for _, honest := range []codec.Message{rig.commitFast(), rig.commit()} {
		rep, _ := deliver(roundTrip(t, honest), true)
		if s := rep.Stats(); s.DroppedInvalid != 0 || s.FinalExecutions != 1 || rep.cfg.App.Digest() == empty {
			t.Fatalf("honest %T did not commit and execute: %+v", honest, s)
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forms := map[string]func() codec.Message{"memory": tc.mk}
			if !tc.inMemory {
				forms["wire"] = func() codec.Message { return roundTrip(t, tc.mk()) }
			}
			for form, mk := range forms {
				for _, pool := range []bool{false, true} {
					rep, reached := deliver(mk(), pool)
					s := rep.Stats()
					if reached && s.DroppedInvalid != 1 {
						t.Errorf("%s, pool=%v: not counted as invalid: %+v", form, pool, s)
					}
					if s.FinalExecutions+s.DeferredCommits != 0 || rep.log.get(so.Inst) != nil || len(rep.pendingExec) != 0 {
						t.Errorf("%s, pool=%v: certificate took effect: %+v", form, pool, s)
					}
					if rep.cfg.App.Digest() != empty {
						t.Errorf("%s, pool=%v: state changed", form, pool)
					}
				}
			}
		})
	}
}
