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

// TestCheckpointTruncationBoundsLog drives sustained load through a
// checkpointing cluster and asserts the per-replica log and dependency
// index stay bounded while the replicas still agree.
func TestCheckpointTruncationBoundsLog(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 8
	const clients, perClient = 3, 120
	leaders := []types.ReplicaID{0, 1, 2}
	tc := newTestCluster(t, opts, leaders, uniqueKeyScripts(clients, perClient))
	if !tc.run(120 * time.Second) {
		t.Fatal("workload did not complete")
	}
	// Drain in-flight fast-path commits and the checkpoint rounds they
	// trigger.
	tc.rt.Run(tc.rt.Kernel().Now() + 5*time.Second)

	total := clients * perClient
	for i, r := range tc.replicas {
		st := r.Stats()
		if st.Checkpoints == 0 {
			t.Fatalf("replica %d established no stable checkpoints", i)
		}
		if st.TruncatedEntries == 0 {
			t.Fatalf("replica %d truncated nothing", i)
		}
		// Retained entries must be bounded by the checkpoint lag (at most
		// ~2 intervals per active space plus commit stragglers), far below
		// the total instance count.
		bound := int(opts.ckptInterval) * 3 * opts.n
		if got := r.LogEntryCount(); got > bound {
			t.Fatalf("replica %d retains %d log entries (> %d) of %d instances", i, got, bound, total)
		}
		if got := r.DepIndexSize(); got > bound {
			t.Fatalf("replica %d retains %d dep-index refs (> %d)", i, got, bound)
		}
		if st.LowWaterMark == 0 {
			t.Fatalf("replica %d has no low-water mark", i)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestCheckpointDisabledKeepsEverything pins the default: with
// CheckpointInterval 0 no checkpoint traffic flows and no entry is freed.
func TestCheckpointDisabledKeepsEverything(t *testing.T) {
	opts := defaultOpts()
	const clients, perClient = 2, 40
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1}, uniqueKeyScripts(clients, perClient))
	if !tc.run(60 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 2*time.Second)
	for i, r := range tc.replicas {
		st := r.Stats()
		if st.Checkpoints != 0 || st.TruncatedEntries != 0 {
			t.Fatalf("replica %d checkpointed with the subsystem disabled: %+v", i, st)
		}
		if got := r.LogEntryCount(); got < clients*perClient {
			t.Fatalf("replica %d retains %d entries, want >= %d", i, got, clients*perClient)
		}
	}
}

// TestCatchupRejoin partitions one replica away, advances the cluster far
// past the retention window (the others truncate), lifts the partition,
// and verifies the laggard rejoins via state transfer and converges.
func TestCatchupRejoin(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 4
	const clients, perClient = 3, 60
	leaders := []types.ReplicaID{0, 1, 2}
	tc := newTestCluster(t, opts, leaders, uniqueKeyScripts(clients, perClient))

	// Drop everything inbound at replica 3 for the first half of the
	// workload.
	lagging := types.ReplicaNode(3)
	partitioned := true
	tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if partitioned && to == lagging {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	})

	tc.rt.Start()
	half := tc.rt.RunUntil(func() bool {
		for _, d := range tc.drivers {
			if len(d.Results) < perClient/2 {
				return false
			}
		}
		return true
	}, 120*time.Second)
	if !half {
		t.Fatal("first phase did not complete")
	}
	// The connected replicas must have truncated below their stable marks
	// while the laggard saw nothing.
	if got := tc.replicas[0].Stats().TruncatedEntries; got == 0 {
		t.Fatal("connected replicas truncated nothing during the partition")
	}
	if got := tc.replicas[3].LogEntryCount(); got != 0 {
		t.Fatalf("partitioned replica has %d entries, want 0", got)
	}

	partitioned = false
	done := tc.rt.RunUntil(func() bool {
		for _, d := range tc.drivers {
			if len(d.Results) < perClient {
				return false
			}
		}
		return true
	}, 240*time.Second)
	if !done {
		t.Fatal("second phase did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 10*time.Second)

	st := tc.replicas[3].Stats()
	if st.CatchupsInstalled == 0 {
		t.Fatalf("lagging replica installed no state transfer: %+v", st)
	}
	served := uint64(0)
	for _, r := range tc.replicas[:3] {
		served += r.Stats().CatchupsServed
	}
	if served == 0 {
		t.Fatal("no replica served a state transfer")
	}
	// The rejoined replica must converge on the application state.
	ref := tc.apps[0].Digest()
	if got := tc.apps[3].Digest(); got != ref {
		t.Fatalf("rejoined replica diverged: %v != %v", got, ref)
	}
	tc.checkConsistency()
}

// TestUncommittedSlotBelowStableMarkCatchesUp: a slot that is present but
// uncommitted at or below a stable mark is a hole too. R0 leads eight commands
// on disjoint keys and never receives the COMMITFAST of the first: slot 1
// stays spec-ordered there, slots 2–8 execute, and R1–R3's votes make mark 8
// stable. Every slot has an entry, so only the entry's status says that R0
// will wait for ever — 2f+1 replicas executed slot 1, its client is done, and
// nobody sends that COMMIT again. The client here is only the load; the hole
// is the filter's. A COMMITFAST that is merely late when the votes arrive must
// not buy a transfer.
func TestUncommittedSlotBelowStableMarkCatchesUp(t *testing.T) {
	for _, tt := range []struct {
		name    string
		verdict sim.Verdict
		delay   time.Duration
		want    bool
	}{
		{name: "lost", verdict: sim.Drop, want: true},
		{name: "late", verdict: sim.Deliver, delay: 600 * time.Millisecond},
	} {
		t.Run(tt.name, func(t *testing.T) {
			opts := defaultOpts()
			opts.ckptInterval = 8
			tc := newTestCluster(t, opts, []types.ReplicaID{0}, uniqueKeyScripts(1, 8))
			first := types.InstanceID{Space: 0, Slot: 1}
			requests := 0
			tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
				switch m := msg.(type) {
				case *CommitFast:
					if to == types.ReplicaNode(0) && m.Inst == first {
						return tt.verdict, tt.delay
					}
				case *CatchupReq:
					if from == types.ReplicaNode(0) {
						requests++
					}
				}
				return sim.Deliver, 0
			})
			if !tc.run(10 * time.Second) {
				t.Fatal("workload did not complete")
			}
			// The votes arrive right behind the last command; the second look is
			// 2 × ResendTimeout later.
			tc.rt.Run(tc.rt.Now() + 200*time.Millisecond)
			if got := tc.replicas[0].ExecMark(0); got != 0 {
				t.Fatalf("R0 executed through slot %d of its own space before slot 1 committed", got)
			}
			if got := tc.replicas[0].LowWaterMark(0); got != 8 {
				t.Fatalf("R0's stable mark is %d, want 8", got)
			}
			tc.rt.Run(tc.rt.Now() + 5*time.Second)

			if got := requests > 0; got != tt.want {
				t.Fatalf("R0 sent %d CATCHUP-REQs, want any = %v", requests, tt.want)
			}
			if got := tc.replicas[0].Stats().CatchupsInstalled > 0; got != tt.want {
				t.Fatalf("R0 installed %d transfers, want any = %v", tc.replicas[0].Stats().CatchupsInstalled, tt.want)
			}
			if got := tc.replicas[0].ExecMark(0); got != 8 {
				t.Fatalf("R0 executed through slot %d of its own space, want 8", got)
			}
			tc.checkStateConvergence()
		})
	}
}

// TestSOFetchRestoresPOM verifies fetch-on-conflict: a client holding two
// evidence-slimmed replies (signed SORef only) for conflicting proposals
// fetches the full SPECORDERs and broadcasts a POM a replica accepts.
func TestSOFetchRestoresPOM(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, [][]types.Command{{}})
	cl := tc.clients[0]
	leaderAuth := tc.replicas[0].cfg.Auth

	cctx := &captureCtx{}
	ts := cl.Submit(cctx, putCmd("k", "v"))
	cmd := types.Command{Client: cl.Cfg.ID, Timestamp: ts, Op: types.OpPut, Key: "k", Value: []byte("v")}
	other := types.Command{Client: 99, Timestamp: 1, Op: types.OpPut, Key: "x", Value: []byte("y")}

	// An equivocating leader (R0) signs two different batches ordering the
	// command at two instances.
	mkSO := func(slot uint64) *SpecOrder {
		digests := []types.Digest{cmd.Digest(), other.Digest()}
		so := &SpecOrder{
			Owner:     0,
			Inst:      types.InstanceID{Space: 0, Slot: slot},
			Deps:      types.NewInstanceSet(),
			Seq:       1,
			CmdDigest: BatchDigest(digests),
			Req:       Request{Cmd: cmd, Orig: noOrig},
			Batch:     []Request{{Cmd: other, Orig: noOrig}},
		}
		so.Sig = engine.SignBody(leaderAuth, so)
		return so
	}
	soA := mkSO(1)
	soB := mkSO(2)

	// Evidence-slimmed replies (signed SORef, no embedded SPECORDER) from
	// two replicas, one per conflicting proposal.
	mkReply := func(rid types.ReplicaID, so *SpecOrder) *SpecReply {
		sr := &SpecReply{
			Owner: 0, Inst: so.Inst, Deps: types.NewInstanceSet(), Seq: 1,
			CmdDigest: cmd.Digest(), Client: cl.Cfg.ID, Timestamp: ts, Replica: rid,
			Result: types.Result{OK: true}, Batched: true, BatchIdx: 0, SORef: so.CmdDigest,
		}
		sr.Sig = engine.SignBody(tc.replicas[rid].cfg.Auth, sr)
		return sr
	}
	cl.Receive(cctx, types.ReplicaNode(1), mkReply(1, soA))
	cl.Receive(cctx, types.ReplicaNode(2), mkReply(2, soB))

	// The client must have asked for the full proposals behind both SORefs.
	fetches := 0
	for _, msg := range cctx.sends {
		if _, ok := msg.(*SOFetch); ok {
			fetches++
		}
	}
	if fetches != 2 {
		t.Fatalf("client sent %d SOFETCHs, want 2", fetches)
	}

	// Replicas answer with the full SPECORDERs; the POM must follow.
	cl.Receive(cctx, types.ReplicaNode(1), soA)
	cl.Receive(cctx, types.ReplicaNode(2), soB)
	var pom *POM
	for _, msg := range cctx.sends {
		if m, ok := msg.(*POM); ok {
			pom = m
		}
	}
	if pom == nil {
		t.Fatal("client built no POM from fetched evidence")
	}
	if pom.Suspect != 0 {
		t.Fatalf("POM accuses %v, want R0", pom.Suspect)
	}
	if cl.Stats().POMsSent != 1 {
		t.Fatalf("POMsSent = %d, want 1", cl.Stats().POMsSent)
	}

	// A replica receiving the POM must accept it and vote an owner change.
	repCtx := &captureCtx{}
	tc.replicas[1].Receive(repCtx, types.ClientNode(cl.Cfg.ID), pom)
	voted := false
	for _, msg := range repCtx.sends {
		if _, ok := msg.(*StartOwnerChange); ok {
			voted = true
		}
	}
	if !voted {
		t.Fatal("replica did not vote an owner change on the fetched-evidence POM")
	}

	// And a replica holding the entry must serve SOFETCH with the full
	// SPECORDER.
	r2 := tc.replicas[2]
	r2.handleSpecOrder(&captureCtx{}, types.ReplicaNode(0), soA)
	fetch := &SOFetch{Client: cl.Cfg.ID, Inst: soA.Inst, Ref: soA.CmdDigest}
	fetch.Sig = engine.SignBody(cl.Cfg.Auth, fetch)
	serveCtx := &captureCtx{}
	r2.Receive(serveCtx, types.ClientNode(cl.Cfg.ID), fetch)
	servedSO := false
	for _, msg := range serveCtx.sends {
		if so, ok := msg.(*SpecOrder); ok && so.CmdDigest == soA.CmdDigest {
			servedSO = true
		}
	}
	if !servedSO {
		t.Fatal("replica did not serve the fetched SPECORDER")
	}
}

// TestCheckpointWireRoundTrip pins the new lifecycle messages' encodings.
func TestCheckpointWireRoundTrip(t *testing.T) {
	msgs := []codec.Message{
		&CheckpointMsg{Space: 2, Slot: 16, Digest: types.DigestBytes([]byte("d")), Replica: 1, Sig: []byte("s")},
		&CatchupReq{Replica: 3, Sig: []byte("sig")},
		&SOFetch{Client: 9, Inst: types.InstanceID{Space: 1, Slot: 4}, Ref: types.DigestBytes([]byte("r")), Sig: []byte("q")},
		&CatchupResp{
			Replica: 1,
			Spaces: []SpaceCkpt{{
				Space: 0, Owner: 4, Frozen: true, LowWater: 8,
				StableDigest: types.DigestBytes([]byte("sd")), Truncated: 8, MaxSlot: 11,
				ExecMark: 10, ExecDigest: types.DigestBytes([]byte("ed")), LogHash: types.DigestBytes([]byte("lh")),
			}},
			Clients:  []ClientMark{{Client: 2, Ts: 17}},
			Snapshot: []byte("snapshot-bytes"),
			Suffix: []HistEntry{{
				Inst: types.InstanceID{Space: 0, Slot: 9}, Status: HistExecuted,
				Cmd:  types.Command{Client: 2, Timestamp: 17, Op: types.OpPut, Key: "k", Value: []byte("v")},
				Deps: types.NewInstanceSet(), Seq: 3, Owner: 4,
			}},
			Proof: []*CheckpointMsg{{Space: 0, Slot: 8, Digest: types.DigestBytes([]byte("sd")), Replica: 0, Sig: []byte("p")}},
			Sig:   []byte("rs"),
		},
	}
	for _, m := range msgs {
		b := codec.Marshal(m)
		back, err := codec.Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if b2 := codec.Marshal(back); string(b) != string(b2) {
			t.Fatalf("%T: round trip not stable", m)
		}
	}
}

// TestDuplicateRequestAfterCatchup: a rejoining replica installs, with the
// state-transfer snapshot, the per-client executed-timestamp table. A
// byte-identical duplicate REQUEST for a command the snapshot already
// reflects must then never be re-applied — even when the caught-up replica
// (which no longer holds the original instance or cached reply) re-orders
// the duplicate at a fresh instance and that instance commits.
func TestDuplicateRequestAfterCatchup(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 4
	const clients, perClient = 3, 24
	scripts := make([][]types.Command, clients)
	for i := range scripts {
		for j := 0; j < perClient; j++ {
			scripts[i] = append(scripts[i], incrCmd("ctr"))
		}
	}
	leaders := []types.ReplicaID{0, 1, 2}
	tc := newTestCluster(t, opts, leaders, scripts)

	lagging := types.ReplicaNode(3)
	partitioned := true
	tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if partitioned && to == lagging {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	})
	tc.rt.Start()
	half := tc.rt.RunUntil(func() bool {
		for _, d := range tc.drivers {
			if len(d.Results) < perClient/2 {
				return false
			}
		}
		return true
	}, 120*time.Second)
	if !half {
		t.Fatal("first phase did not complete")
	}
	partitioned = false
	done := tc.rt.RunUntil(func() bool {
		for _, d := range tc.drivers {
			if len(d.Results) < perClient {
				return false
			}
		}
		return true
	}, 240*time.Second)
	if !done {
		t.Fatal("second phase did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 10*time.Second)
	r3 := tc.replicas[3]
	if r3.Stats().CatchupsInstalled == 0 {
		t.Fatal("lagging replica installed no state transfer")
	}

	// Replay client 0's first command, byte-identical to the original.
	cl := tc.clients[0]
	cmd := types.Command{Client: cl.Cfg.ID, Timestamp: 1, Op: types.OpIncr, Key: "ctr"}
	dup := &Request{Cmd: cmd, Orig: noOrig}
	dup.Sig = engine.SignBody(cl.Cfg.Auth, dup)

	before := tc.apps[3].Digest()
	cctx := &captureCtx{}
	r3.Receive(cctx, types.ClientNode(cl.Cfg.ID), dup)

	var so *SpecOrder
	var served *SpecReply
	for _, m := range cctx.sends {
		switch v := m.(type) {
		case *SpecOrder:
			so = v
		case *SpecReply:
			if v.Client == cl.Cfg.ID && v.Timestamp == 1 {
				served = v
			}
		}
	}
	if so == nil && served == nil {
		t.Fatal("duplicate request was silently dropped (no cached reply, no proposal)")
	}
	t.Logf("duplicate handled via re-order=%v cached-reply=%v", so != nil, served != nil)
	if so != nil {
		// The caught-up replica re-ordered the duplicate at a fresh
		// instance. Drive that instance to commit and final execution by
		// hand: the installed executed-timestamp table must make the
		// duplicate a no-op.
		var cert []*SpecReply
		for _, rid := range []types.ReplicaID{0, 1, 2} {
			pctx := &captureCtx{}
			tc.replicas[rid].Receive(pctx, types.ReplicaNode(3), so)
			for _, m := range pctx.sends {
				if sr, ok := m.(*SpecReply); ok && sr.Client == cl.Cfg.ID && sr.Timestamp == 1 {
					cert = append(cert, sr)
				}
			}
		}
		if len(cert) < SlowQuorum(tc.n) {
			t.Fatalf("collected %d replies for the duplicate instance, want %d", len(cert), SlowQuorum(tc.n))
		}
		commit := &Commit{
			Client: cl.Cfg.ID, Timestamp: 1,
			Inst: so.Inst, Deps: cert[0].Deps.Clone(), Seq: cert[0].Seq,
			Cert: cert[:SlowQuorum(tc.n)],
		}
		commit.Sig = engine.SignBody(cl.Cfg.Auth, commit)
		r3.Receive(&captureCtx{}, types.ClientNode(cl.Cfg.ID), commit)
	}

	if got := tc.apps[3].Digest(); got != before {
		t.Fatal("duplicate request was re-applied after catch-up")
	}
	if ref := tc.apps[0].Digest(); tc.apps[3].Digest() != ref {
		t.Fatal("caught-up replica diverged from the cluster")
	}
}

// TestDepWaitIgnoresTruncatedDependency: a dependency that commits, executes
// and is truncated by a stable checkpoint while a dependent waits on it is
// settled, not suspect. Client 1's first command depends on client 0's
// (same key, its REQUEST held until R1 has client 0's SPECORDER), and client
// 0's commit is held back from every replica, so every replica arms the
// dependency-wait timer for it. Client 0 keeps its space moving on private
// keys, so once the commit lands the space checkpoints and truncates past
// it well before the timer fires. The timer must then find the slot below
// the truncation point and leave the space alone.
func TestDepWaitIgnoresTruncatedDependency(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 2
	scripts := [][]types.Command{{putCmd("hot", "a")}, {putCmd("hot", "b")}}
	for i := 0; i < 30; i++ {
		scripts[0] = append(scripts[0], putCmd(fmt.Sprintf("own-%d", i), "v"))
	}
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1}, scripts)
	held := opts.resendTimeout * 3 / 5 // past the dependent's commit, short of the timer
	tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		switch m := msg.(type) {
		case *Request:
			if m.Cmd.Client == 1 && m.Cmd.Timestamp == 1 {
				return sim.Deliver, 3 * opts.delay
			}
		case *CommitFast:
			if m.Client == 0 && len(m.Cert) == 1 && m.Cert[0].Timestamp == 1 {
				return sim.Deliver, held
			}
		case *Commit:
			if m.Client == 0 && m.Timestamp == 1 {
				return sim.Deliver, held
			}
		}
		return sim.Deliver, 0
	})
	if !tc.run(30 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 2*opts.resendTimeout)
	for i, r := range tc.replicas {
		st := r.Stats()
		if st.TruncatedEntries == 0 {
			t.Fatalf("replica %d truncated nothing: the test lost its shape", i)
		}
		if st.OwnerChanges != 0 {
			t.Errorf("replica %d led %d owner changes", i, st.OwnerChanges)
		}
		for s := 0; s < tc.n; s++ {
			if sp := r.log.space(types.ReplicaID(s)); sp.suspended || sp.frozen {
				t.Errorf("replica %d gave up space %d", i, s)
			}
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}
