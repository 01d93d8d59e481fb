package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
)

// pvRig builds the signing material and a fresh replica for equivalence
// checks between the transport-side pre-verifier and in-loop verification.
type pvRig struct {
	t    *testing.T
	ring *auth.HMACKeyring
	n    int
}

func newPVRig(t *testing.T) *pvRig {
	return &pvRig{t: t, ring: auth.NewHMACKeyring([]byte("preverify-equivalence")), n: 4}
}

func (r *pvRig) replicaAuth(id types.ReplicaID) auth.Authenticator {
	return r.ring.ForNode(types.ReplicaNode(id))
}

func (r *pvRig) clientAuth(id types.ClientID) auth.Authenticator {
	return r.ring.ForNode(types.ClientNode(id))
}

func (r *pvRig) freshReplica(self types.ReplicaID) *Replica {
	rep, err := NewReplica(ReplicaConfig{
		Self: self, N: r.n, App: kvstore.New(), Auth: r.replicaAuth(self),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return rep
}

// request builds a signed REQUEST from client 5 for leader 1.
func (r *pvRig) request(ts uint64) *Request {
	req := &Request{Cmd: types.Command{Client: 5, Timestamp: ts, Op: types.OpPut, Key: "k", Value: []byte("v")}, Orig: noOrig}
	req.Sig = engine.SignBody(r.clientAuth(5), req)
	return req
}

// specOrder builds replica 1's signed first proposal embedding a fresh
// request.
func (r *pvRig) specOrder() *SpecOrder {
	req := r.request(1)
	so := &SpecOrder{
		Owner: 1,
		Inst:  types.InstanceID{Space: 1, Slot: 1},
		Deps:  types.NewInstanceSet(),
		Seq:   1,
		Req:   *req,
	}
	so.CmdDigest = BatchDigest(so.CmdDigests())
	sp := newCmdLog(r.n).space(1)
	sp.extendHash(so.Inst, so.CmdDigest)
	so.LogHash = sp.logHash
	so.Sig = engine.SignBody(r.replicaAuth(1), so)
	return so
}

// specReply builds `from`'s signed reply for the given proposal.
func (r *pvRig) specReply(from types.ReplicaID, so *SpecOrder) *SpecReply {
	sr := &SpecReply{
		Owner:     so.Owner,
		Inst:      so.Inst,
		Deps:      so.Deps.Clone(),
		Seq:       so.Seq,
		CmdDigest: so.Req.Cmd.Digest(),
		Client:    so.Req.Cmd.Client,
		Timestamp: so.Req.Cmd.Timestamp,
		Replica:   from,
		Result:    types.Result{OK: true},
		SO:        so,
	}
	sr.Sig = engine.SignBody(r.replicaAuth(from), sr)
	return sr
}

// commit builds client 5's signed slow-path COMMIT with a 2f+1 certificate.
func (r *pvRig) commit() *Commit {
	so := r.specOrder()
	cert := []*SpecReply{r.specReply(0, so), r.specReply(1, so), r.specReply(2, so)}
	c := &Commit{
		Client:    5,
		Timestamp: so.Req.Cmd.Timestamp,
		Inst:      so.Inst,
		Deps:      so.Deps.Clone(),
		Seq:       so.Seq,
		Cert:      cert,
	}
	c.Sig = engine.SignBody(r.clientAuth(5), c)
	return c
}

// compactCommit is commit() as a client sends it when the replies agree:
// the first reply and the other two signers' signatures over its body.
func (r *pvRig) compactCommit() *Commit {
	c := r.commit()
	for _, sr := range c.Cert[1:] {
		c.Sigs = append(c.Sigs, ReplySig{Replica: sr.Replica, Sig: sr.Sig})
	}
	c.Cert = c.Cert[:1] // the client's signature covers neither form
	return c
}

// startOwnerChange builds replica 2's signed vote against replica 1.
func (r *pvRig) startOwnerChange() *StartOwnerChange {
	m := &StartOwnerChange{Suspect: 1, Owner: 1, Replica: 2}
	m.Sig = engine.SignBody(r.replicaAuth(2), m)
	return m
}

// pom builds a valid proof of misbehaviour: replica 1 signs the same
// request at two instances.
func (r *pvRig) pom() *POM {
	a := r.specOrder()
	b := r.specOrder()
	b.Inst = types.InstanceID{Space: 1, Slot: 2}
	b.Sig = engine.SignBody(r.replicaAuth(1), b)
	return &POM{Suspect: 1, Owner: 1, Client: 5, A: a, B: b}
}

// TestCertEmbeddedSpecOrderMarkRequiresClientSigs pins the meaning of the
// SPECORDER mark: the leader signature AND every embedded client signature
// verified, which only the SPECORDER's own frame establishes. The pass over a
// certificate embedding it leaves it unmarked; a mark given there for the
// leader signature alone would let a Byzantine owner launder a forged client
// signature — ship the SPECORDER inside a certificate first, then broadcast
// the same shared value as an ordering frame that skips client-signature
// verification.
func TestCertEmbeddedSpecOrderMarkRequiresClientSigs(t *testing.T) {
	rig := newPVRig(t)
	pred := InboundVerifier(rig.replicaAuth(3), rig.n)

	so := rig.specOrder()
	so.Req.Sig[0] ^= 0xFF // forge the embedded client signature; the leader signature stays valid
	sr := rig.specReply(0, so)
	pred(&CommitFast{Client: 5, Inst: so.Inst, Cert: []*SpecReply{sr}})

	if so.SigVerified() {
		t.Fatal("certificate pass marked a SPECORDER whose embedded client signature is forged")
	}
	if pred(so) {
		t.Fatal("forged-client-sig SPECORDER accepted as an ordering frame after the certificate pass")
	}
}

// TestPreVerifierLoopEquivalence proves the pool path and the in-loop path
// reject exactly the same corrupted frames: for every case the predicate's
// verdict matches whether a fresh replica's loop drops the (unmarked)
// message as invalid, a value the predicate refused is still dropped by a
// loop it reaches, and every predicate-accepted (marked) message drives a
// second replica to the same stats as the unmarked original.
func TestPreVerifierLoopEquivalence(t *testing.T) {
	rig := newPVRig(t)

	cases := []struct {
		name  string
		mk    func() codec.Message
		valid bool
	}{
		{"request/valid", func() codec.Message { return rig.request(1) }, true},
		{"request/bad-client-sig", func() codec.Message {
			m := rig.request(1)
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"specorder/valid", func() codec.Message { return rig.specOrder() }, true},
		{"specorder/bad-owner-sig", func() codec.Message {
			m := rig.specOrder()
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"specorder/bad-embedded-client-sig", func() codec.Message {
			m := rig.specOrder()
			m.Req.Sig[0] ^= 0xFF
			return m
		}, false},
		{"commit/valid", func() codec.Message { return rig.commit() }, true},
		{"commit/bad-client-sig", func() codec.Message {
			m := rig.commit()
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"commit/bad-cert-sig", func() codec.Message {
			m := rig.commit()
			m.Cert[1].Sig[0] ^= 0xFF
			return m
		}, false},
		{"commit-compact/valid", func() codec.Message { return rig.compactCommit() }, true},
		{"commit-compact/bad-reply-sig", func() codec.Message {
			m := rig.compactCommit()
			m.Cert[0].Sig[0] ^= 0xFF
			return m
		}, false},
		{"commit-compact/bad-signer-sig", func() codec.Message {
			m := rig.compactCommit()
			m.Sigs[1].Sig[0] ^= 0xFF
			return m
		}, false},
		{"commitfast/valid", func() codec.Message { return rig.commitFast() }, true},
		{"commitfast/bad-reply-sig", func() codec.Message {
			m := rig.commitFast()
			m.Cert[0].Sig[0] ^= 0xFF
			return m
		}, false},
		{"commitfast/bad-signer-sig", func() codec.Message {
			m := rig.commitFast()
			m.Sigs[1].Sig[0] ^= 0xFF
			return m
		}, false},
		{"startownerchange/valid", func() codec.Message { return rig.startOwnerChange() }, true},
		{"startownerchange/bad-sig", func() codec.Message {
			m := rig.startOwnerChange()
			m.Sig[0] ^= 0xFF
			return m
		}, false},
		{"pom/valid", func() codec.Message { return rig.pom() }, true},
		{"pom/bad-evidence-sig", func() codec.Message {
			m := rig.pom()
			m.B.Sig[0] ^= 0xFF
			return m
		}, false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The pool verdict, on the verifying replica's authenticator.
			pred := InboundVerifier(rig.replicaAuth(3), rig.n)
			if got := pred(tc.mk()); got != tc.valid {
				t.Fatalf("pre-verifier accepted=%v, want %v", got, tc.valid)
			}

			// The in-loop verdict on a fresh, unmarked copy.
			inLoop := rig.freshReplica(3)
			inLoop.Receive(noopCtx{}, types.ReplicaNode(1), tc.mk())
			dropped := inLoop.Stats().DroppedInvalid > 0
			if dropped == tc.valid {
				t.Fatalf("in-loop dropped=%v, want %v (pool and loop must reject the same frames)", dropped, !tc.valid)
			}

			// One decoded value reaches every recipient on the mesh, so a
			// value the pool refused must carry no mark that spares another
			// replica's loop a check.
			if refused := tc.mk(); !pred(refused) {
				other := rig.freshReplica(3)
				other.Receive(noopCtx{}, types.ReplicaNode(1), refused)
				if other.Stats().DroppedInvalid == 0 {
					t.Fatal("a value the pool refused passed the loop of a replica it also reached")
				}
			}

			// A marked (pool-verified) copy must drive a replica to the same
			// observable counters as the unmarked valid original.
			if tc.valid {
				marked := tc.mk()
				if !pred(marked) {
					t.Fatal("predicate rejected the valid frame on the marked pass")
				}
				viaPool := rig.freshReplica(3)
				viaPool.Receive(noopCtx{}, types.ReplicaNode(1), marked)
				if got, want := viaPool.Stats(), inLoop.Stats(); got != want {
					t.Fatalf("marked delivery stats %+v != unmarked delivery stats %+v", got, want)
				}
			}
		})
	}
}

// commitFast builds client 5's COMMITFAST: replica 0's reply and the
// signatures replicas 1–3 put on theirs.
func (r *pvRig) commitFast() *CommitFast {
	so := r.specOrder()
	return fastCertOf(5, []*SpecReply{r.specReply(0, so), r.specReply(1, so), r.specReply(2, so), r.specReply(3, so)})
}

// countingAuth counts the verifications that reach an authenticator.
type countingAuth struct {
	auth.Authenticator
	verifies atomic.Int64
}

func (c *countingAuth) Verify(signer types.NodeID, payload, token []byte) error {
	c.verifies.Add(1)
	return c.Authenticator.Verify(signer, payload, token)
}

// TestCertVerifiesEachSpecOrderOnce: a certificate carries one SPECORDER,
// and a receiver verifies it once at most — never on the pool (4 replica
// signatures for a 4-signer COMMITFAST, client + 3 for a COMMIT, where the
// parent spent 2 more on the SPECORDER), and on the loop only its leader
// signature, only when the certificate has to install an instance the
// replica never saw. Pool-on and pool-off deliveries leave a replica in the
// same state.
func TestCertVerifiesEachSpecOrderOnce(t *testing.T) {
	rig := newPVRig(t)
	for _, tc := range []struct {
		name string
		mk   func() codec.Message
		want int64
	}{
		{"commitfast", func() codec.Message { return roundTrip(t, rig.commitFast()) }, 4},
		{"commit", func() codec.Message { return roundTrip(t, rig.commit()) }, 1 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counter := &countingAuth{Authenticator: rig.replicaAuth(3)}
			marked := tc.mk()
			if !InboundVerifier(counter, rig.n)(marked) {
				t.Fatal("pre-verifier rejected a valid certificate")
			}
			if got := counter.verifies.Load(); got != tc.want {
				t.Fatalf("pre-verifier made %d Verify calls, want %d", got, tc.want)
			}

			viaPool, inLoop := rig.freshReplica(3), rig.freshReplica(3)
			viaPool.cfg.Auth = counter
			viaPool.Receive(noopCtx{}, types.ClientNode(5), marked)
			if got := counter.verifies.Load(); got != tc.want+1 {
				t.Fatalf("installing from a marked certificate made %d Verify calls, want 1 (the SPECORDER's leader signature)", got-tc.want)
			}
			inLoop.Receive(noopCtx{}, types.ClientNode(5), tc.mk())
			if got, want := viaPool.Stats(), inLoop.Stats(); got != want {
				t.Fatalf("marked delivery stats %+v != unmarked delivery stats %+v", got, want)
			}
			if s := inLoop.Stats(); s.DroppedInvalid != 0 || s.FastCommits+s.SlowCommits != 1 {
				t.Fatalf("certificate did not commit the instance: %+v", s)
			}
		})
	}
}

// TestCertSplicedSpecOrderStaysApart: replies sign their body, not the
// SPECORDER riding along, so a Byzantine client can splice an equivocating
// leader's second proposal into an otherwise honest certificate. In a later
// reply it goes nowhere — only the first reply's SPECORDER travels or is
// read; in the first, the pool passes it on unjudged and unmarked and the
// binding checks in commitEntry refuse it, pool on or off.
func TestCertSplicedSpecOrderStaysApart(t *testing.T) {
	rig := newPVRig(t)
	// second is the leader's other proposal for the same instance: another
	// request, validly signed (forgeLeaderSig breaks that signature).
	second := func(forgeLeaderSig bool) *SpecOrder {
		b := rig.specOrder()
		b.Req = *rig.request(2)
		b.CmdDigest = BatchDigest(b.CmdDigests())
		b.Sig = engine.SignBody(rig.replicaAuth(1), b)
		if forgeLeaderSig {
			b.Sig[0] ^= 0xFF
		}
		return b
	}

	t.Run("later-reply", func(t *testing.T) {
		m := rig.commit()
		m.Cert[2].SO = second(false)
		got := roundTrip(t, m).(*Commit)
		if got.Cert[0].SO == nil || got.Cert[0].SO.Req.Cmd.Timestamp != 1 || got.Cert[1].SO != nil || got.Cert[2].SO != nil {
			t.Fatal("COMMIT did not decode to the first reply's SPECORDER alone")
		}
		if !bytes.Equal(codec.Marshal(got), codec.Marshal(rig.commit())) {
			t.Fatal("the spliced SPECORDER changed the frame")
		}
		// Handed over in memory (mesh, simulator) it is just as inert.
		for name, msg := range map[string]*Commit{"wire": got, "memory": m} {
			rep := rig.freshReplica(3)
			rep.Receive(noopCtx{}, types.ClientNode(5), msg)
			e := rep.log.get(m.Inst)
			if s := rep.Stats(); s.DroppedInvalid != 0 || s.SlowCommits != 1 || e == nil || e.cmd.Timestamp != 1 {
				t.Fatalf("%s: honest proposal not committed: %+v", name, s)
			}
		}
	})

	for _, forged := range []bool{false, true} {
		t.Run(fmt.Sprintf("first-reply/forged-leader-sig=%v", forged), func(t *testing.T) {
			m := rig.commitFast()
			m.Cert[0].SO = second(forged) // commitEntry installs from Cert[0]
			got := roundTrip(t, m).(*CommitFast)

			pred := InboundVerifier(rig.replicaAuth(3), rig.n)
			if !pred(got) {
				t.Fatal("pre-verifier dropped the frame; the embedded SPECORDER is for the loop to judge")
			}
			if !got.SigVerified() || got.Cert[0].SO.SigVerified() {
				t.Fatal("the pool marks the certificate's signatures and never its SPECORDER")
			}

			for name, msg := range map[string]*CommitFast{"pool-on": got, "pool-off": roundTrip(t, m).(*CommitFast)} {
				rep := rig.freshReplica(3)
				rep.Receive(noopCtx{}, types.ClientNode(5), msg)
				if s := rep.Stats(); s.DroppedInvalid != 1 || s.FinalExecutions != 0 {
					t.Fatalf("%s: spliced certificate not dropped: %+v", name, s)
				}
				if rep.log.get(m.Inst) != nil {
					t.Fatalf("%s: spliced SPECORDER installed an entry", name)
				}
			}
		})
	}
}
