package core

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// fetchVictim is the replica the commit-fetch tests keep the clients'
// commits from.
const fetchVictim = types.ReplicaID(3)

// dropCommitsTo is a sim.Filter that keeps every client's COMMITFAST and
// COMMIT from the victim and lets the rest through, unless also says
// otherwise.
func dropCommitsTo(victim types.ReplicaID, also func(from, to types.NodeID, msg codec.Message) bool) sim.Filter {
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		switch msg.(type) {
		case *CommitFast, *Commit:
			if from.IsClient() && to == types.ReplicaNode(victim) {
				return sim.Drop, 0
			}
		}
		if also != nil && also(from, to, msg) {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	}
}

// checkFetchedAndExecuted asserts that the victim executed every slot the
// client's leader ordered, fetched at least once, and reached the state of
// its peers.
func checkFetchedAndExecuted(t *testing.T, tc *testCluster, slots uint64) {
	t.Helper()
	victim := tc.replicas[fetchVictim]
	for slot := uint64(1); slot <= slots; slot++ {
		inst := types.InstanceID{Space: 0, Slot: slot}
		if e := victim.log.get(inst); e == nil || e.status != StatusExecuted {
			t.Fatalf("victim's entry at %v: %+v, want executed", inst, e)
		}
	}
	if st := victim.Stats(); st.CommitFetches == 0 {
		t.Fatalf("victim stats %+v: no COMMITFETCH sent", st)
	}
	tc.checkStateConvergence()
	tc.checkConsistency()
}

// TestCommitFetchRecoversDroppedCommit: a replica that never receives the
// client's COMMITFAST, or its COMMIT, fetches the certificate from its peers
// and executes the instance within two scan periods of the client's
// decision. Nobody fetches once everything is committed.
func TestCommitFetchRecoversDroppedCommit(t *testing.T) {
	for _, tt := range []struct {
		name string
		slow bool
	}{{"commitfast", false}, {"commit", true}} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTestCluster(t, defaultOpts(), []types.ReplicaID{0},
				[][]types.Command{{putCmd("a", "1"), putCmd("b", "2"), putCmd("c", "3")}})
			// On the slow path R1's SPECREPLYs never reach the client, which
			// therefore commits with a COMMIT to the other three.
			tc.rt.SetFilter(dropCommitsTo(fetchVictim, func(from, _ types.NodeID, msg codec.Message) bool {
				_, reply := msg.(*SpecReply)
				return tt.slow && reply && from == types.ReplicaNode(1)
			}))
			if !tc.run(30 * time.Second) {
				t.Fatal("the client did not complete its commands")
			}
			st := tc.clients[0].Stats()
			if tt.slow && st.SlowDecisions != 3 || !tt.slow && st.FastDecisions != 3 {
				t.Fatalf("client stats %+v, want three %s decisions", st, tt.name)
			}
			scan := tc.replicas[fetchVictim].cfg.DepWaitTimeout
			tc.rt.Run(tc.rt.Now() + 2*scan)
			checkFetchedAndExecuted(t, tc, 3)

			fetches := tc.replicas[fetchVictim].Stats().CommitFetches
			tc.rt.Run(tc.rt.Now() + 4*scan)
			for i, r := range tc.replicas {
				want := uint64(0)
				if types.ReplicaID(i) == fetchVictim {
					want = fetches
				}
				if got := r.Stats().CommitFetches; got != want {
					t.Errorf("replica %d sent %d COMMITFETCHes, want %d", i, got, want)
				}
			}
		})
	}
}

// forgeCommitFast is an engine.Behavior that answers COMMITFETCHes with a copy
// of the certificate whose last signature has one byte flipped.
type forgeCommitFast struct{}

func (forgeCommitFast) Inbound(proc.Context, types.NodeID, codec.Message) bool { return true }

func (forgeCommitFast) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	if _, ok := msg.(*CommitFast); !ok {
		return true
	}
	copied, err := codec.Unmarshal(codec.Marshal(msg))
	if err != nil {
		panic(err)
	}
	forged := copied.(*CommitFast)
	sig := forged.Sigs[len(forged.Sigs)-1].Sig
	sig[len(sig)-1] ^= 1
	ctx.Send(to, forged)
	return false
}

// TestCommitFetchIgnoresForgedAnswer: a peer answering a COMMITFETCH with a
// certificate whose signature was tampered with is counted as invalid and
// commits nothing; the entry waits for the honest answers.
func TestCommitFetchIgnoresForgedAnswer(t *testing.T) {
	opts := defaultOpts()
	opts.byz = map[types.ReplicaID]byzantine{0: func(types.ReplicaID, int, auth.Authenticator) engine.Behavior { return forgeCommitFast{} }}
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, [][]types.Command{{putCmd("a", "1")}})
	honest := false
	tc.rt.SetFilter(dropCommitsTo(fetchVictim, func(from, to types.NodeID, msg codec.Message) bool {
		_, fast := msg.(*CommitFast)
		return fast && !honest && from.IsReplica() && from != types.ReplicaNode(0)
	}))
	if !tc.run(30 * time.Second) {
		t.Fatal("the client did not complete its command")
	}
	victim := tc.replicas[fetchVictim]
	scan := victim.cfg.DepWaitTimeout
	tc.rt.Run(tc.rt.Now() + 3*scan)
	st := victim.Stats()
	if st.CommitFetches == 0 || st.DroppedInvalid == 0 {
		t.Fatalf("victim stats %+v: want a COMMITFETCH sent and the forged answer dropped", st)
	}
	if e := victim.log.get(types.InstanceID{Space: 0, Slot: 1}); e == nil || e.status != StatusSpecOrdered {
		t.Fatalf("victim's entry after forged answers only: %+v, want still spec-ordered", e)
	}

	honest = true
	tc.rt.Run(tc.rt.Now() + 2*scan)
	checkFetchedAndExecuted(t, tc, 1)
}

// TestCommitFetchFromAClientOrItselfIsDropped: a replica answers a
// COMMITFETCH its peer signed, and drops one a client signed in a replica's
// name, and one that names the receiver itself.
func TestCommitFetchFromAClientOrItselfIsDropped(t *testing.T) {
	tc := newTestCluster(t, defaultOpts(), []types.ReplicaID{0}, [][]types.Command{{putCmd("a", "1")}})
	if !tc.run(30 * time.Second) {
		t.Fatal("the client did not complete its command")
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	const receiver = 1
	r := tc.replicas[receiver]
	insts := types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 1})
	signed := func(as types.ReplicaID, by auth.Authenticator) *CommitFetch {
		m := &CommitFetch{Replica: as, Insts: insts}
		m.Sig = engine.SignBody(by, m)
		return m
	}
	for _, tt := range []struct {
		name string
		m    *CommitFetch
		ok   bool
	}{
		{"signed by its peer", signed(2, tc.replicas[2].cfg.Auth), true},
		{"signed by a client", signed(2, tc.clients[0].Cfg.Auth), false},
		{"naming the receiver", signed(receiver, r.cfg.Auth), false},
	} {
		ctx := &captureCtx{}
		before := r.Stats().DroppedInvalid
		r.Receive(ctx, types.ReplicaNode(2), tt.m)
		dropped := r.Stats().DroppedInvalid - before
		answered := len(ctx.sends) == 1
		if answered {
			_, answered = ctx.sends[0].(*CommitFast)
		}
		if tt.ok && (!answered || dropped != 0) || !tt.ok && (len(ctx.sends) != 0 || dropped != 1) {
			t.Errorf("COMMITFETCH %s: sent %v, %d dropped", tt.name, ctx.sends, dropped)
		}
	}
}

// TestEntryFitsItsSizeClass: every instance a replica orders allocates one
// entry, so the certificate it keeps for COMMITFETCH must not move the entry
// out of the allocator's 352-byte size class (the next is 384 bytes).
func TestEntryFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 352 {
		t.Fatalf("entry is %d bytes, want at most 352", size)
	}
}

// FuzzCommitFetch: decoding any COMMITFETCH body never panics, what decodes
// re-marshals to the same bytes, and no decoded request names more than
// maxFetch instances (the last seed names one more).
func FuzzCommitFetch(f *testing.F) {
	var full types.InstanceSet
	for slot := uint64(1); slot <= maxFetch+1; slot++ {
		full = append(full, types.InstanceID{Space: 2, Slot: slot})
	}
	for _, m := range []*CommitFetch{
		{Replica: 2, Sig: []byte("sig")},
		{Replica: 1, Insts: full[:2], Sig: []byte("sig")},
		{Replica: 3, Insts: full[:maxFetch], Sig: []byte("sig")},
		{Replica: 0, Insts: full},
	} {
		f.Add(codec.Marshal(m)[1:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := append([]byte{tagCommitFetch}, body...)
		m, err := codec.Unmarshal(frame)
		if err != nil {
			return
		}
		if got := codec.Marshal(m); !bytes.Equal(got, frame) {
			t.Fatalf("COMMITFETCH accepted from %x re-marshals to %x", frame, got)
		}
		if n := len(m.(*CommitFetch).Insts); n > maxFetch {
			t.Fatalf("a COMMITFETCH decoded %d instances", n)
		}
	})
}

// TestCompactCommitSurvivesRestart: the compact COMMIT a replica keeps for
// an entry is logged with the commit decision, so a replica restarted over
// its disk store still holds it, byte for byte, and answers a peer's
// COMMITFETCH with it.
func TestCompactCommitSurvivesRestart(t *testing.T) {
	rig := newPVRig(t)
	dir := t.TempDir()
	const self = types.ReplicaID(3)
	start := func() (*Replica, *store.Disk) {
		t.Helper()
		disk, err := store.OpenDisk(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplica(ReplicaConfig{Self: self, N: rig.n, App: kvstore.New(), Auth: rig.replicaAuth(self), Store: disk})
		if err != nil {
			t.Fatal(err)
		}
		rep.Init(noopCtx{})
		return rep, disk
	}

	cc := rig.compactCommit()
	want := codec.Marshal(cc)
	rep, disk := start()
	rep.Receive(noopCtx{}, types.ClientNode(5), roundTrip(t, cc))
	if e := rep.log.get(cc.Inst); e == nil || e.status != StatusExecuted || e.clientCommit == nil {
		t.Fatalf("compact COMMIT did not commit and execute: %+v", e)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	rep, disk = start()
	defer disk.Close()
	if rep.Stats().Recoveries != 1 {
		t.Fatal("the restarted replica did not recover from its store")
	}
	e := rep.log.get(cc.Inst)
	if e == nil || e.status != StatusExecuted || e.clientCommit == nil {
		t.Fatalf("entry after restart: %+v, want executed with its COMMIT", e)
	}
	if got := codec.Marshal(e.clientCommit); !bytes.Equal(got, want) {
		t.Fatalf("COMMIT after restart is %x, want %x", got, want)
	}

	fetch := &CommitFetch{Replica: 0, Insts: types.NewInstanceSet(cc.Inst)}
	fetch.Sig = engine.SignBody(rig.replicaAuth(0), fetch)
	var answers [][]byte
	rep.Receive(&sendProbeCtx{onSend: func(to types.NodeID, msg codec.Message) {
		if to == types.ReplicaNode(0) {
			answers = append(answers, codec.Marshal(msg))
		}
	}}, types.ReplicaNode(0), fetch)
	if len(answers) != 1 || !bytes.Equal(answers[0], want) {
		t.Fatalf("COMMITFETCH answered with %x, want the compact COMMIT %x", answers, want)
	}
}
