package core

import (
	"testing"
	"time"

	"ezbft/internal/types"
)

// TestFig1FastPathTrace reproduces the paper's Figure 1: a single command
// with no contention commits on the fast path in exactly three
// communication steps, with an empty dependency set and sequence number 1.
func TestFig1FastPathTrace(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{putCmd("x", "v0")}},
	)
	if !tc.run(5 * time.Second) {
		t.Fatal("command did not complete")
	}

	res := tc.drivers[0].Results[0]
	if !res.FastPath {
		t.Fatal("expected fast-path decision")
	}
	// Three one-way hops of 10ms each: request, spec-order, spec-reply.
	if res.Latency != 30*time.Millisecond {
		t.Fatalf("latency = %v, want 30ms (3 communication steps)", res.Latency)
	}
	if tc.clients[0].Stats().FastDecisions != 1 {
		t.Fatalf("fast decisions = %d", tc.clients[0].Stats().FastDecisions)
	}

	// Every replica committed L0 at instance <R0,1> with D = {} and S = 1.
	tc.rt.Run(tc.rt.Now() + time.Second) // let COMMITFAST propagate
	inst := types.InstanceID{Space: 0, Slot: 1}
	for _, r := range tc.replicas {
		e := r.log.get(inst)
		if e == nil || e.status != StatusExecuted {
			t.Fatalf("%v: entry %v status %v", r.cfg.Self, inst, e)
		}
		if len(e.deps) != 0 || e.seq != 1 {
			t.Fatalf("%v: deps=%v seq=%d, want {} and 1", r.cfg.Self, e.deps, e.seq)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestFastPathResultVisible confirms the value committed on the fast path
// is readable afterwards and final execution reproduced the speculative
// result.
func TestFastPathResultVisible(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{putCmd("x", "hello"), getCmd("x")}},
	)
	if !tc.run(5 * time.Second) {
		t.Fatal("commands did not complete")
	}
	res := tc.drivers[0].Results
	if !res[1].Result.OK || string(res[1].Result.Value) != "hello" {
		t.Fatalf("GET returned %+v", res[1].Result)
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	for i, r := range tc.replicas {
		for _, rec := range r.ExecutedLog() {
			e := r.log.get(rec.Inst)
			if e.specExecuted && !e.finalResult.Equal(e.specResult) {
				t.Fatalf("replica %d: fast-path result instability at %v", i, rec.Inst)
			}
		}
		if v, ok := tc.apps[i].Get("x"); !ok || string(v) != "hello" {
			t.Fatalf("replica %d final state: %q %v", i, v, ok)
		}
	}
}

// TestNonInterferingCommandsBothFast: two clients at different replicas
// writing different keys both take the fast path — leaderless operation
// with no coordination between non-interfering commands.
func TestNonInterferingCommandsBothFast(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 3},
		[][]types.Command{{putCmd("a", "1")}, {putCmd("b", "2")}},
	)
	if !tc.run(5 * time.Second) {
		t.Fatal("commands did not complete")
	}
	for i, d := range tc.drivers {
		if !d.Results[0].FastPath {
			t.Fatalf("client %d did not take the fast path", i)
		}
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestFig2SlowPathTrace reproduces the paper's Figure 2: interfering
// commands L1 (client c0 → R0) and L2 (client c1 → R3) with the paper's
// arrival orders (R0, R1 see L1 first; R2, R3 see L2 first). Both commands
// take the slow path; final dependency sets are DL1 = {L2}, DL2 = {L1} with
// equal sequence numbers, and the cycle is broken by replica ID: every
// correct replica executes L1 before L2.
func TestFig2SlowPathTrace(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 3},
		[][]types.Command{{putCmd("k", "L1")}, {putCmd("k", "L2")}},
	)
	// Reproduce the paper's arrival orders: delay SPECORDER R0→R2 (so R2
	// sees L2 first) and R3→R1 (so R1 sees L1 first).
	tc.rt.SetFilter(delaySpecOrders(map[[2]types.ReplicaID]time.Duration{
		{0, 2}: 2 * time.Millisecond,
		{3, 1}: 2 * time.Millisecond,
	}))
	if !tc.run(5 * time.Second) {
		t.Fatal("commands did not complete")
	}

	for i, d := range tc.drivers {
		if d.Results[0].FastPath {
			t.Fatalf("client %d unexpectedly took the fast path", i)
		}
	}
	tc.rt.Run(tc.rt.Now() + time.Second)

	instL1 := types.InstanceID{Space: 0, Slot: 1}
	instL2 := types.InstanceID{Space: 3, Slot: 1}
	for _, r := range tc.replicas {
		e1, e2 := r.log.get(instL1), r.log.get(instL2)
		if e1 == nil || e2 == nil || e1.status != StatusExecuted || e2.status != StatusExecuted {
			t.Fatalf("%v: entries not executed", r.cfg.Self)
		}
		if !e1.deps.Has(instL2) {
			t.Fatalf("%v: DL1 = %v, want {L2}", r.cfg.Self, e1.deps)
		}
		if !e2.deps.Has(instL1) {
			t.Fatalf("%v: DL2 = %v, want {L1}", r.cfg.Self, e2.deps)
		}
		if e1.seq != 2 || e2.seq != 2 {
			t.Fatalf("%v: seqs %d/%d, want 2/2", r.cfg.Self, e1.seq, e2.seq)
		}
		// Cycle broken by replica ID: L1 (space R0) executes before L2.
		log := r.ExecutedLog()
		var p1, p2 = -1, -1
		for i, rec := range log {
			if rec.Inst == instL1 {
				p1 = i
			}
			if rec.Inst == instL2 {
				p2 = i
			}
		}
		if p1 < 0 || p2 < 0 || p1 > p2 {
			t.Fatalf("%v: execution order L1@%d L2@%d, want L1 first", r.cfg.Self, p1, p2)
		}
		// Final value is L2's write everywhere.
		if v, _ := tc.apps[r.cfg.Self].Get("k"); string(v) != "L2" {
			t.Fatalf("%v: final k=%q, want L2", r.cfg.Self, v)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestFig2SlowPathLatency: the slow path costs exactly two extra
// communication steps (5 hops total).
func TestFig2SlowPathLatency(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 3},
		[][]types.Command{{putCmd("k", "L1")}, {putCmd("k", "L2")}},
	)
	tc.rt.SetFilter(delaySpecOrders(map[[2]types.ReplicaID]time.Duration{
		{0, 2}: 2 * time.Millisecond,
		{3, 1}: 2 * time.Millisecond,
	}))
	if !tc.run(5 * time.Second) {
		t.Fatal("commands did not complete")
	}
	for i, d := range tc.drivers {
		// 5 hops × 10ms plus the 2ms injected skew on the spec-order leg.
		if d.Results[0].Latency > 60*time.Millisecond {
			t.Fatalf("client %d slow-path latency %v, want ≈5 steps (≤60ms)",
				i, d.Results[0].Latency)
		}
		if d.Results[0].Latency < 50*time.Millisecond {
			t.Fatalf("client %d latency %v suspiciously below 5 steps", i, d.Results[0].Latency)
		}
	}
}

// TestFig3FaultyReplicaTrace reproduces the paper's Figure 3: the Fig 2
// scenario with replica R2 lying about dependencies (always replying with
// D′ = {} and S′ = 1). L1's final dependency set becomes empty, but R1 —
// a correct member of L2's slow quorum — forces L1 into L2's dependency
// set, so all correct replicas still execute L1 before L2.
func TestFig3FaultyReplicaTrace(t *testing.T) {
	opts := defaultOpts()
	opts.byz = map[types.ReplicaID]byzantine{2: newDepLiar}
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 3},
		[][]types.Command{{putCmd("k", "L1")}, {putCmd("k", "L2")}},
	)
	tc.rt.SetFilter(delaySpecOrders(map[[2]types.ReplicaID]time.Duration{
		{0, 2}: 2 * time.Millisecond,
		{3, 1}: 2 * time.Millisecond,
	}))
	if !tc.run(5 * time.Second) {
		t.Fatal("commands did not complete")
	}
	tc.rt.Run(tc.rt.Now() + time.Second)

	instL1 := types.InstanceID{Space: 0, Slot: 1}
	instL2 := types.InstanceID{Space: 3, Slot: 1}
	for _, r := range tc.correctReplicas() {
		e2 := r.log.get(instL2)
		if e2 == nil || e2.status != StatusExecuted {
			t.Fatalf("%v: L2 not executed", r.cfg.Self)
		}
		// The paper's key claim: despite R2's lie, L2's final commit
		// includes L1.
		if !e2.deps.Has(instL1) {
			t.Fatalf("%v: DL2 = %v, want to contain L1", r.cfg.Self, e2.deps)
		}
		log := r.ExecutedLog()
		var p1, p2 = -1, -1
		for i, rec := range log {
			if rec.Inst == instL1 {
				p1 = i
			}
			if rec.Inst == instL2 {
				p2 = i
			}
		}
		if p1 < 0 || p2 < 0 || p1 > p2 {
			t.Fatalf("%v: execution order L1@%d L2@%d, want L1 first", r.cfg.Self, p1, p2)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestContentionConsistency: heavy interference from all four regions
// converges to identical state and identical interfering order everywhere.
func TestContentionConsistency(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 1, 2, 3},
		hotKeyScripts(4, 10),
	)
	if !tc.run(60 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestNoContentionAllFast: disjoint keys from all four regions: every
// command takes the fast path.
func TestNoContentionAllFast(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0, 1, 2, 3},
		uniqueKeyScripts(4, 10),
	)
	if !tc.run(60 * time.Second) {
		t.Fatal("workload did not complete")
	}
	for i, c := range tc.clients {
		st := c.Stats()
		if st.FastDecisions != 10 || st.SlowDecisions != 0 {
			t.Fatalf("client %d: fast=%d slow=%d, want 10/0", i, st.FastDecisions, st.SlowDecisions)
		}
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestMixedContention interleaves hot-key and private-key commands.
func TestMixedContention(t *testing.T) {
	opts := defaultOpts()
	scripts := [][]types.Command{
		{putCmd("hot", "a1"), putCmd("c0", "x"), incrCmd("ctr"), putCmd("hot", "a2")},
		{putCmd("c1", "y"), putCmd("hot", "b1"), incrCmd("ctr"), getCmd("hot")},
		{incrCmd("ctr"), getCmd("c2"), putCmd("hot", "c1"), putCmd("c2", "z")},
		{putCmd("hot", "d1"), incrCmd("ctr"), getCmd("hot"), getCmd("ctr")},
	}
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1, 2, 3}, scripts)
	if !tc.run(60 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)
	tc.checkConsistency()
	tc.checkStateConvergence()

	// All four INCRs committed exactly once.
	for i := range tc.apps {
		if faulty(tc.replicas[i]) {
			continue
		}
		v, ok := tc.apps[i].Get("ctr")
		if !ok || kvstoreCounter(v) != 4 {
			t.Fatalf("replica %d: ctr=%d, want 4", i, kvstoreCounter(v))
		}
	}
}

// TestDeterministicReplay: identical seeds produce identical execution
// logs.
func TestDeterministicReplay(t *testing.T) {
	runOnce := func() [][]ExecRecord {
		opts := defaultOpts()
		tc := newTestCluster(t, opts,
			[]types.ReplicaID{0, 1, 2, 3},
			hotKeyScripts(4, 5),
		)
		if !tc.run(60 * time.Second) {
			t.Fatal("workload did not complete")
		}
		tc.rt.Run(tc.rt.Now() + 2*time.Second)
		logs := make([][]ExecRecord, len(tc.replicas))
		for i, r := range tc.replicas {
			logs[i] = r.ExecutedLog()
		}
		return logs
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("replica %d: %d vs %d records", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j].Inst != b[i][j].Inst {
				t.Fatalf("replica %d record %d: %v vs %v", i, j, a[i][j].Inst, b[i][j].Inst)
			}
		}
	}
}

func kvstoreCounter(v []byte) uint64 {
	if len(v) != 8 {
		return 0
	}
	var out uint64
	for _, b := range v {
		out = out<<8 | uint64(b)
	}
	return out
}
