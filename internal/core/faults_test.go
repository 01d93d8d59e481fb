package core

import (
	"testing"
	"time"

	"ezbft/internal/types"
)

// TestMuteLeaderOwnerChange: the client's leader receives requests but
// never responds (fail-silent). The client times out and re-broadcasts;
// the other replicas forward RESENDREQs, time out, vote STARTOWNERCHANGE,
// and complete an owner change. The command is then adopted by a correct
// replica and commits; the suspect's space ends frozen.
func TestMuteLeaderOwnerChange(t *testing.T) {
	opts := defaultOpts()
	opts.mute = map[types.ReplicaID]bool{0: true}
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{incrCmd("n")}},
	)
	if !tc.run(30 * time.Second) {
		t.Fatal("command did not complete despite owner change")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	for _, r := range tc.correctReplicas() {
		if !r.Frozen(0) {
			t.Fatalf("%v: suspect's space not frozen", r.cfg.Self)
		}
		if r.OwnerNumber(0) != 1 {
			t.Fatalf("%v: owner number %d, want 1", r.cfg.Self, r.OwnerNumber(0))
		}
		// Exactly-once: the INCR executed once even though several replicas
		// may have adopted the command.
		v, ok := tc.apps[r.cfg.Self].Get("n")
		if !ok || kvstoreCounter(v) != 1 {
			t.Fatalf("%v: n=%d, want 1", r.cfg.Self, kvstoreCounter(v))
		}
	}
	if tc.clients[0].Stats().Retries == 0 {
		t.Fatal("client should have retried")
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestCrashedLeaderOwnerChange: like the mute test but the replica crashes
// mid-run (drops off the network entirely) after ordering some commands.
func TestCrashedLeaderOwnerChange(t *testing.T) {
	opts := defaultOpts()
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{putCmd("a", "1"), putCmd("b", "2"), putCmd("c", "3")}},
	)
	tc.rt.Start()
	// Let the first command commit, then crash R0.
	tc.rt.RunUntil(func() bool { return len(tc.drivers[0].Results) >= 1 }, 10*time.Second)
	tc.rt.Crash(types.ReplicaNode(0))
	done := tc.rt.RunUntil(func() bool {
		return len(tc.drivers[0].Results) == 3
	}, 60*time.Second)
	if !done {
		t.Fatalf("only %d/3 commands completed after crash", len(tc.drivers[0].Results))
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	for _, r := range tc.correctReplicas()[1:] { // skip crashed R0
		if !r.Frozen(0) {
			t.Fatalf("%v: crashed leader's space not frozen", r.cfg.Self)
		}
	}
	// All three values visible on the surviving replicas.
	for i := 1; i < 4; i++ {
		for key, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
			if v, ok := tc.apps[i].Get(key); !ok || string(v) != want {
				t.Fatalf("replica %d: %s=%q, want %q", i, key, v, want)
			}
		}
	}
}

// TestEquivocatingLeaderPOM: a byzantine command-leader desynchronizes the
// replica halves and then orders client c1's request at different instances
// for each half. Client c1 sees conflicting embedded SPECORDERs, broadcasts
// a POM, and the owner change freezes the leader's space; both clients'
// commands still complete exactly once via retry rotation.
func TestEquivocatingLeaderPOM(t *testing.T) {
	opts := defaultOpts()
	opts.byz = map[types.ReplicaID]byzantine{0: newEquivocator}
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 0}, // both clients use the byzantine leader
		[][]types.Command{{incrCmd("n")}, {incrCmd("n")}},
	)
	if !tc.run(60 * time.Second) {
		t.Fatal("commands did not complete despite equivocation")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	if tc.clients[0].Stats().POMsSent+tc.clients[1].Stats().POMsSent == 0 {
		t.Fatal("no client sent a POM")
	}
	for _, r := range tc.correctReplicas() {
		if !r.Frozen(0) {
			t.Fatalf("%v: equivocator's space not frozen", r.cfg.Self)
		}
		v, ok := tc.apps[r.cfg.Self].Get("n")
		if !ok || kvstoreCounter(v) != 2 {
			t.Fatalf("%v: n=%d, want 2 (exactly-once)", r.cfg.Self, kvstoreCounter(v))
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestSlowPathWithOneSilentReplica: with one replica mute, the fast quorum
// (3f+1) is unreachable but every command still commits through the slow
// path (2f+1), demonstrating liveness with f faults.
func TestSlowPathWithOneSilentReplica(t *testing.T) {
	opts := defaultOpts()
	opts.mute = map[types.ReplicaID]bool{2: true}
	opts.slowTimeout = 100 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{putCmd("x", "1"), putCmd("y", "2"), putCmd("z", "3")}},
	)
	if !tc.run(30 * time.Second) {
		t.Fatal("commands did not complete")
	}
	st := tc.clients[0].Stats()
	if st.FastDecisions != 0 || st.SlowDecisions != 3 {
		t.Fatalf("fast=%d slow=%d, want 0/3", st.FastDecisions, st.SlowDecisions)
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestOwnerChangeRecoversSpecOrderedEntries: commands that were
// spec-ordered by f+1 correct replicas before their leader went mute are
// recovered through Condition 2 of the owner-change protocol and survive
// in the same instances (Stability).
func TestOwnerChangeRecoversSpecOrderedEntries(t *testing.T) {
	opts := defaultOpts()
	opts.retryTimeout = 400 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{putCmd("k", "v1"), putCmd("k2", "v2")}},
	)
	tc.rt.Start()
	// First command commits normally.
	tc.rt.RunUntil(func() bool { return len(tc.drivers[0].Results) >= 1 }, 10*time.Second)

	// Now partition R0's outbound COMMIT handling: crash it right after it
	// broadcasts the second SPECORDER but before the client's commit round
	// finishes. The spec-ordered entry must survive the owner change.
	instSecond := types.InstanceID{Space: 0, Slot: 2}
	tc.rt.RunUntil(func() bool {
		// Wait until at least f+1 correct replicas spec-ordered slot 2.
		count := 0
		for i := 1; i < 4; i++ {
			if e := tc.replicas[i].log.get(instSecond); e != nil {
				count++
			}
		}
		return count >= 2
	}, 10*time.Second)
	tc.rt.Crash(types.ReplicaNode(0))

	if !tc.rt.RunUntil(func() bool { return len(tc.drivers[0].Results) == 2 }, 60*time.Second) {
		t.Fatal("second command did not complete after crash")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	// Stability: if slot 2 committed anywhere, it committed with the same
	// command everywhere it committed.
	var committedCmd *types.Command
	for i := 1; i < 4; i++ {
		e := tc.replicas[i].log.get(instSecond)
		if e == nil || e.status < StatusCommitted {
			continue
		}
		if committedCmd == nil {
			c := e.cmd
			committedCmd = &c
		} else if !committedCmd.Equal(e.cmd) {
			t.Fatalf("replica %d committed a different command at %v", i, instSecond)
		}
	}
	for i := 1; i < 4; i++ {
		if v, ok := tc.apps[i].Get("k2"); !ok || string(v) != "v2" {
			t.Fatalf("replica %d: k2=%q, want v2", i, v)
		}
	}
	tc.checkConsistency() // crashed R0 holds a consistent prefix
	// State convergence across the survivors only (R0 is frozen in time).
	ref := tc.apps[1].Digest()
	for i := 2; i < 4; i++ {
		if tc.apps[i].Digest() != ref {
			t.Fatalf("replica %d state diverged from replica 1", i)
		}
	}
}

// TestStaleSpecOrderRejectedAfterFreeze: SPECORDERs for a frozen space are
// dropped — the owner change permanently retires the suspect's space.
func TestStaleSpecOrderRejectedAfterFreeze(t *testing.T) {
	opts := defaultOpts()
	opts.mute = map[types.ReplicaID]bool{0: true}
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{putCmd("x", "1")}},
	)
	if !tc.run(30 * time.Second) {
		t.Fatal("command did not complete")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	// Forge a spec order for the frozen space and inject it directly.
	r1 := tc.replicas[1]
	before := r1.Stats().DroppedInvalid
	so := &SpecOrder{
		Owner: 0,
		Inst:  types.InstanceID{Space: 0, Slot: 99},
		Deps:  types.NewInstanceSet(),
		Seq:   1,
	}
	r1.Receive(noopCtx{}, types.ReplicaNode(0), so)
	if r1.Stats().DroppedInvalid <= before {
		t.Fatal("stale SPECORDER for frozen space was not rejected")
	}
}

// TestWrongOwnerNumberRejected: a SPECORDER carrying a mismatched owner
// number is rejected.
func TestWrongOwnerNumberRejected(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, [][]types.Command{{}})
	r1 := tc.replicas[1]
	before := r1.Stats().DroppedInvalid
	so := &SpecOrder{
		Owner: 4, // space 0's owner number is 0
		Inst:  types.InstanceID{Space: 0, Slot: 1},
		Deps:  types.NewInstanceSet(),
		Seq:   1,
	}
	r1.Receive(noopCtx{}, types.ReplicaNode(0), so)
	if r1.Stats().DroppedInvalid <= before {
		t.Fatal("wrong-owner SPECORDER accepted")
	}
}
