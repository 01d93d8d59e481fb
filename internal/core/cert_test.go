package core

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/sim"
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
	compact := func(edit func(*Commit)) func() codec.Message {
		return func() codec.Message {
			m := rig.compactCommit()
			edit(m)
			return m
		}
	}
	cases := []struct {
		name     string
		mk       func() codec.Message
		inMemory bool // has no encoding
	}{
		{"compact-same-pair-twice", compact(func(m *Commit) { m.Sigs[1] = m.Sigs[0] }), false},
		{"compact-pair-names-the-element", compact(func(m *Commit) { m.Sigs[0] = ReplySig{Replica: 0, Sig: m.Cert[0].Sig} }), false},
		{"compact-replica-minus-one", compact(func(m *Commit) { m.Sigs[1].Replica = -1 }), false},
		{"compact-replica-n", compact(func(m *Commit) { m.Sigs[1].Replica = 4 }), false},
		{"compact-two-signers", compact(func(m *Commit) { m.Sigs = m.Sigs[:1] }), false},
		{"compact-signature-byte-flipped", compact(func(m *Commit) { m.Sigs[1].Sig[0] ^= 0xFF }), false},
		{"compact-pair-signs-other-seq", compact(func(m *Commit) {
			m.Sigs[1] = sigOf(2, func(sr *SpecReply) { sr.Seq++ })
		}), false},
		{"compact-two-elements", compact(func(m *Commit) { m.Cert = append(m.Cert, rig.specReply(3, so)) }), true},
		{"compact-no-element", compact(func(m *Commit) { m.Cert = nil }), true},
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

	for _, honest := range []codec.Message{rig.commitFast(), rig.commit(), rig.compactCommit()} {
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

// TestConditionOneNeedsACertificate: an owner change adopts a slow-committed
// entry outright (Condition 1) only when the client's COMMIT carries a
// certificate that holds — 2f+1 distinct replicas with valid signatures for
// the entry's proposal. A client-signed COMMIT whose certificate falls short
// proves nothing, so its entry is recovered like any other spec-ordered one
// (Condition 2), with the dependencies and sequence number the histories
// report rather than the client's.
func TestConditionOneNeedsACertificate(t *testing.T) {
	rig := newPVRig(t)
	so := rig.specOrder()
	// The replies raised the sequence number to claimed, and the client's
	// COMMIT says so; the histories report the SPECORDER's.
	const claimed = 9
	vouched := func(compact bool, edit func(*Commit)) *Commit {
		c := rig.commit()
		for _, sr := range c.Cert {
			sr.Seq = claimed
			sr.Sig = engine.SignBody(rig.replicaAuth(sr.Replica), sr)
		}
		if compact {
			for _, sr := range c.Cert[1:] {
				c.Sigs = append(c.Sigs, ReplySig{Replica: sr.Replica, Sig: sr.Sig})
			}
			c.Cert = c.Cert[:1]
		}
		c.Seq = claimed
		c.Sig = engine.SignBody(rig.clientAuth(5), c)
		edit(c) // the client's signature covers neither form
		return c
	}
	full := func(edit func(*Commit)) *Commit { return vouched(false, edit) }
	compact := func(edit func(*Commit)) *Commit { return vouched(true, edit) }
	keep := func(*Commit) {}
	cases := []struct {
		name    string
		cc      *Commit
		adopted bool
	}{
		{"full", full(keep), true},
		{"compact", compact(keep), true},
		{"full-two-replies", full(func(c *Commit) { c.Cert = c.Cert[:2] }), false},
		{"full-forged-reply", full(func(c *Commit) { c.Cert[2].Sig[0] ^= 0xFF }), false},
		{"full-repeated-reply", full(func(c *Commit) { c.Cert[2] = c.Cert[1] }), false},
		{"compact-two-signers", compact(func(c *Commit) { c.Sigs = c.Sigs[:1] }), false},
		{"compact-forged-pair", compact(func(c *Commit) { c.Sigs[1].Sig[0] ^= 0xFF }), false},
		{"compact-repeated-pair", compact(func(c *Commit) { c.Sigs[1] = c.Sigs[0] }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hist := func(status HistStatus, cc *Commit) []HistEntry {
				return []HistEntry{{
					Inst: so.Inst, Status: status, Cmd: so.Req.Cmd, Deps: so.Deps,
					Seq: so.Seq, Owner: so.Owner, SO: so, ClientCommit: cc,
				}}
			}
			proof := []*OwnerChange{
				{Suspect: 1, NewOwner: 2, Replica: 0, History: hist(HistCommitted, roundTrip(t, tc.cc).(*Commit))},
				{Suspect: 1, NewOwner: 2, Replica: 2, History: hist(HistSpecOrdered, nil)},
				{Suspect: 1, NewOwner: 2, Replica: 3, History: hist(HistSpecOrdered, nil)},
			}
			safe := rig.freshReplica(2).selectSafeHistory(noopCtx{}, changeKey{suspect: 1, owner: so.Owner}, proof)
			if len(safe) != 1 || safe[0].Inst != so.Inst || safe[0].Cmd.Digest() != so.Req.Cmd.Digest() {
				t.Fatalf("safe history %+v, want the proposal at %v", safe, so.Inst)
			}
			want := so.Seq
			if tc.adopted {
				want = claimed
			}
			if safe[0].Seq != want {
				t.Fatalf("safe entry has sequence number %d, want %d (adopted by Condition 1: %v)", safe[0].Seq, want, tc.adopted)
			}
		})
	}
}

// TestSlowCommitFormFollowsAgreement: a client sends the compact COMMIT
// exactly when the slow quorum's replies agree. With one replica silent they
// do — every command commits on the slow path with one reply and two signer
// pairs — and in the paper's Fig. 2 conflict they differ in dependencies, so
// both COMMITs carry their three replies whole. Both clusters converge.
func TestSlowCommitFormFollowsAgreement(t *testing.T) {
	run := func(t *testing.T, opts clusterOpts, leaders []types.ReplicaID, scripts [][]types.Command, inner sim.Filter) []*Commit {
		t.Helper()
		tc := newTestCluster(t, opts, leaders, scripts)
		var sent []*Commit
		tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
			if c, ok := msg.(*Commit); ok && to == types.ReplicaNode(0) {
				sent = append(sent, c)
			}
			if inner == nil {
				return sim.Deliver, 0
			}
			return inner(from, to, msg)
		})
		if !tc.run(30 * time.Second) {
			t.Fatal("commands did not complete")
		}
		tc.rt.Run(tc.rt.Now() + time.Second)
		tc.checkConsistency()
		tc.checkStateConvergence()
		return sent
	}

	t.Run("silent-replica", func(t *testing.T) {
		opts := defaultOpts()
		opts.mute = map[types.ReplicaID]bool{3: true}
		opts.slowTimeout = 100 * time.Millisecond
		sent := run(t, opts, []types.ReplicaID{0},
			[][]types.Command{{putCmd("x", "1"), putCmd("y", "2"), putCmd("z", "3")}}, nil)
		if len(sent) != 3 {
			t.Fatalf("client sent %d COMMITs, want 3", len(sent))
		}
		for _, c := range sent {
			if c.Tag() != tagCommitCompact || len(c.Cert) != 1 || len(c.Sigs) != SlowQuorum(4)-1 {
				t.Errorf("COMMIT for %v: tag %d, %d replies, %d signer pairs; want the compact form", c.Inst, c.Tag(), len(c.Cert), len(c.Sigs))
			}
		}
	})

	t.Run("replies-differ", func(t *testing.T) {
		sent := run(t, defaultOpts(), []types.ReplicaID{0, 3},
			[][]types.Command{{putCmd("k", "L1")}, {putCmd("k", "L2")}},
			delaySpecOrders(map[[2]types.ReplicaID]time.Duration{{0, 2}: 2 * time.Millisecond, {3, 1}: 2 * time.Millisecond}))
		if len(sent) != 2 {
			t.Fatalf("clients sent %d COMMITs, want 2", len(sent))
		}
		for _, c := range sent {
			if c.Tag() != tagCommit || len(c.Cert) != SlowQuorum(4) || len(c.Sigs) != 0 || agree(c.Cert) {
				t.Errorf("COMMIT for %v: tag %d, %d replies, %d signer pairs, agreeing %v; want differing replies whole",
					c.Inst, c.Tag(), len(c.Cert), len(c.Sigs), agree(c.Cert))
			}
		}
	})
}

// TestCommitDecisionFromCertificate: a replica takes a slow-path decision
// from the replies the COMMIT's certificate carries, never from the client's
// claim alone. The three valid replies say sequence number 1 and no
// dependencies; a client-signed COMMIT claiming sequence number 9, or a
// dependency none of them reported, commits nothing when it arrives (through
// the verifier pool or straight to the loop) and proves nothing in an owner
// change, in either certificate form.
func TestCommitDecisionFromCertificate(t *testing.T) {
	rig := newPVRig(t)
	so := rig.specOrder()
	lies := []struct {
		name string
		edit func(*Commit)
	}{
		{"seq", func(c *Commit) { c.Seq = 9 }},
		{"dep", func(c *Commit) { c.Deps = types.NewInstanceSet(types.InstanceID{Space: 2, Slot: 9}) }},
	}
	for _, compact := range []bool{false, true} {
		for _, lie := range lies {
			mk := func() *Commit {
				c := rig.commit()
				if compact {
					c = rig.compactCommit()
				}
				lie.edit(c)
				c.Sig = engine.SignBody(rig.clientAuth(5), c)
				return roundTrip(t, c).(*Commit)
			}
			t.Run(fmt.Sprintf("compact=%v/%s", compact, lie.name), func(t *testing.T) {
				for _, pool := range []bool{false, true} {
					rep := rig.freshReplica(3)
					msg := mk()
					if pool && !InboundVerifier(rig.replicaAuth(3), rig.n)(msg) {
						t.Fatal("the pool refused a COMMIT whose signatures are all valid")
					}
					rep.Receive(noopCtx{}, types.ClientNode(5), msg)
					if s := rep.Stats(); s.DroppedInvalid != 1 || s.SlowCommits+s.DeferredCommits+s.FinalExecutions != 0 || rep.log.get(so.Inst) != nil {
						t.Errorf("pool=%v: the client's claim took effect: %+v", pool, s)
					}
				}

				hist := func(status HistStatus, cc *Commit) []HistEntry {
					return []HistEntry{{
						Inst: so.Inst, Status: status, Cmd: so.Req.Cmd, Deps: so.Deps,
						Seq: so.Seq, Owner: so.Owner, SO: so, ClientCommit: cc,
					}}
				}
				proof := []*OwnerChange{
					{Suspect: 1, NewOwner: 2, Replica: 0, History: hist(HistCommitted, mk())},
					{Suspect: 1, NewOwner: 2, Replica: 2, History: hist(HistSpecOrdered, nil)},
					{Suspect: 1, NewOwner: 2, Replica: 3, History: hist(HistSpecOrdered, nil)},
				}
				safe := rig.freshReplica(2).selectSafeHistory(noopCtx{}, changeKey{suspect: 1, owner: so.Owner}, proof)
				if len(safe) != 1 || safe[0].Seq != so.Seq || !safe[0].Deps.Equal(so.Deps) {
					t.Fatalf("safe history %+v, want the proposal's seq %d and deps %v (Condition 2)", safe, so.Seq, so.Deps)
				}
			})
		}
	}
}
