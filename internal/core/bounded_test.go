package core

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// runScripts starts the cluster and runs until every client has completed
// at least `each` commands of its script.
func (tc *testCluster) runScripts(each int, deadline time.Duration) bool {
	return tc.rt.RunUntil(func() bool {
		for _, d := range tc.drivers {
			if len(d.Results) < each {
				return false
			}
		}
		return true
	}, deadline)
}

// TestRequestStateBounded runs far more requests per client than the
// retention window holds (the older truncation tests stop inside it, where
// keeping everything is correct) and requires the per-request tables —
// instance map, reply cache, exactly-once memo — to stay within what the
// contract allows: ReplyRetention requests per client plus whatever the
// retained log entries still back, and no growth between the half-way point
// and the end.
func TestRequestStateBounded(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 64
	const clients, perClient = 2, 2400
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1}, uniqueKeyScripts(clients, perClient))
	tc.rt.Start()
	if !tc.runScripts(perClient/2, 600*time.Second) {
		t.Fatal("first half did not complete")
	}
	midway := make([]int, tc.n)
	for i, r := range tc.replicas {
		midway[i] = r.RequestStateCount()
	}
	if !tc.runScripts(perClient, 1200*time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 5*time.Second)
	for i, r := range tc.replicas {
		got := r.RequestStateCount()
		t.Logf("replica %d: state for %d of %d requests (%d half-way), %d log entries", i, got, clients*perClient, midway[i], r.LogEntryCount())
		if bound := clients*engine.ReplyRetention + r.LogEntryCount(); got > bound {
			t.Errorf("replica %d keeps state for %d of %d requests, bound %d (%d per client + %d log entries)",
				i, got, clients*perClient, bound, engine.ReplyRetention, r.LogEntryCount())
		}
		// The two samples fall at different points of the checkpoint cycle,
		// hence the slack of one interval per client's space.
		if slack := clients * int(opts.ckptInterval); got > midway[i]+slack {
			t.Errorf("replica %d: per-request state grew from %d half-way to %d at the end", i, midway[i], got)
		}
		if st := r.Stats(); st.FinalExecutions != clients*perClient {
			t.Errorf("replica %d executed %d commands, want %d", i, st.FinalExecutions, clients*perClient)
		}
	}
	tc.checkStateConvergence()
}

// TestProductReplicaKeepsNoExecutionLog: a replica built the way every
// running system builds it has no execution observer, so it retains no
// record of what it executed however much that is.
func TestProductReplicaKeepsNoExecutionLog(t *testing.T) {
	opts := defaultOpts()
	opts.product = true
	const clients, perClient = 2, 60
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1}, uniqueKeyScripts(clients, perClient))
	if !tc.run(120 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 2*time.Second)
	for i, r := range tc.replicas {
		if st := r.Stats(); st.FinalExecutions != clients*perClient {
			t.Fatalf("replica %d executed %d commands, want %d", i, st.FinalExecutions, clients*perClient)
		}
		if r.execObserver != nil || len(r.execLog) != 0 || cap(r.execLog) != 0 || len(r.ExecutedLog()) != 0 {
			t.Fatalf("replica %d holds %d execution records (observer set: %v)", i, len(r.execLog), r.execObserver != nil)
		}
	}
	tc.checkStateConvergence()
}

// replayDriver runs a script and then, once the test arms it, submits the
// script's first command again under its original timestamp — what a
// client that lost its state, or a Byzantine one, can do at any time.
type replayDriver struct {
	*workload.FixedScript
	armed, replayed bool
}

func (d *replayDriver) Start(ctx proc.Context, s workload.Submitter) {
	d.FixedScript.Start(ctx, s)
	ctx.SetTimer(workload.DriverTimerBase, time.Second)
}

func (d *replayDriver) OnTimer(ctx proc.Context, s workload.Submitter, id proc.TimerID) {
	if !d.armed {
		ctx.SetTimer(id, time.Second)
		return
	}
	if !d.replayed {
		d.replayed = true
		s.(*Client).nextTS = 0 // the next Submit is stamped with timestamp 1 again
		s.Submit(ctx, d.Commands[0])
	}
}

// TestReplayedOldRequestIsNotExecutedAgain: releasing per-request state on
// schedule must not let a request from below the window back in. After
// 2×ReplyRetention newer requests the client's first one — an increment, so
// a second execution would show — is replayed with a valid signature: first
// at its leader, then, as the client times out and retries, at every
// replica. Nobody may order it, execute it, or suspect anybody over it.
func TestReplayedOldRequestIsNotExecutedAgain(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 8
	var replay *replayDriver
	opts.driver = func(i int, script *workload.FixedScript) workload.Driver {
		if i != 0 {
			return script
		}
		replay = &replayDriver{FixedScript: script}
		return replay
	}
	const newer = 2*engine.ReplyRetention + 16
	script := []types.Command{incrCmd("ctr")}
	script = append(script, uniqueKeyScripts(1, newer)[0]...)
	other := uniqueKeyScripts(2, 64)[1]
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1}, [][]types.Command{script, other})
	if !tc.run(600 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 5*time.Second)

	first := cmdKey{tc.clients[0].cfg.ID, 1}
	type snapshot struct {
		digest types.Digest
		stats  ReplicaStats
	}
	before := make([]snapshot, tc.n)
	for i, r := range tc.replicas {
		if _, cached := r.replyCache[first]; cached {
			t.Fatalf("replica %d still caches the first request's reply: the replay would not reach admission", i)
		}
		before[i] = snapshot{tc.apps[i].Digest(), r.Stats()}
	}
	completed := tc.clients[0].Stats().Completed

	replay.armed = true
	// Long enough for the replay, the client's retry broadcast and rotation,
	// and any resend or dependency timer a replica might wrongly have armed.
	tc.rt.Run(tc.rt.Kernel().Now() + 15*time.Second)
	if got := tc.clients[0].Stats().Completed; got != completed {
		t.Errorf("the replayed request completed (%d → %d completions)", completed, got)
	} else if !replay.replayed || tc.clients[0].Stats().Retries == 0 {
		t.Fatalf("the replay did not run its course (replayed %v, retries %d)", replay.replayed, tc.clients[0].Stats().Retries)
	}
	for i, r := range tc.replicas {
		st := r.Stats()
		if d := tc.apps[i].Digest(); d != before[i].digest {
			t.Errorf("replica %d: state digest changed after the replay", i)
		}
		if st.FinalExecutions != before[i].stats.FinalExecutions || st.SpecExecuted != before[i].stats.SpecExecuted || st.Ordered != before[i].stats.Ordered {
			t.Errorf("replica %d acted on the replay: ordered %d→%d, speculated %d→%d, executed %d→%d", i,
				before[i].stats.Ordered, st.Ordered, before[i].stats.SpecExecuted, st.SpecExecuted,
				before[i].stats.FinalExecutions, st.FinalExecutions)
		}
		if st.OwnerChanges != 0 {
			t.Errorf("replica %d changed an owner over a request nobody should order", i)
		}
		if st.DroppedInvalid == before[i].stats.DroppedInvalid {
			t.Errorf("replica %d did not count the replayed request as dropped", i)
		}
	}
	if v, _ := tc.apps[0].Get("ctr"); len(v) != 8 || v[7] != 1 {
		t.Fatalf("counter = %v, want exactly one increment", v)
	}
}

// reproposer is a command-leader's Byzantine behaviour: once armed, the first
// REQUEST it receives for the victim timestamp is ordered in a fresh instance
// whatever the admission rules say — the request is validly signed, so every
// participant accepts the SPECORDER.
type reproposer struct {
	r         *Replica
	ts        uint64
	armed     bool
	proposals int
}

func (b *reproposer) Outbound(proc.Context, types.NodeID, codec.Message) bool { return true }

func (b *reproposer) Inbound(ctx proc.Context, _ types.NodeID, msg codec.Message) bool {
	req, ok := msg.(*Request)
	if !ok || !b.armed || req.Cmd.Timestamp != b.ts || b.proposals > 0 {
		return true
	}
	b.proposals++
	reqCopy := req.Clone()
	b.r.leadCommand(ctx, &reqCopy, b.r.cfg.Self)
	return false
}

// TestReproposedOldRequestIsNotExecutedAgain: releasing the exactly-once memo
// on schedule must not let a Byzantine command-leader have an old request
// executed twice. After 2×ReplyRetention newer requests, with the first
// request's memo released everywhere, its leader orders it again in a fresh
// instance: the participants accept the SPECORDER (the request's signature is
// valid and they cannot refuse by timestamp without splitting), the client
// commits it, and every correct replica finally executes the instance — but
// skips the command, because its timestamp is in the settled set.
func TestReproposedOldRequestIsNotExecutedAgain(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 8
	var replay *replayDriver
	opts.driver = func(i int, script *workload.FixedScript) workload.Driver {
		if i != 0 {
			return script
		}
		replay = &replayDriver{FixedScript: script}
		return replay
	}
	const newer = 2*engine.ReplyRetention + 16
	script := []types.Command{incrCmd("ctr")}
	script = append(script, uniqueKeyScripts(1, newer)[0]...)
	other := uniqueKeyScripts(2, 64)[1]
	byz := &reproposer{ts: 1}
	opts.byz = map[types.ReplicaID]byzantine{0: func(types.ReplicaID, int, auth.Authenticator) engine.Behavior { return byz }}
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1}, [][]types.Command{script, other})
	byz.r = tc.replicas[0]
	if !tc.run(600 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 5*time.Second)

	first := cmdKey{tc.clients[0].cfg.ID, 1}
	digests := make([]types.Digest, tc.n)
	executions := make([]uint64, tc.n)
	for i, r := range tc.replicas {
		if _, kept := r.executed[first]; kept {
			t.Fatalf("replica %d still holds the first request's memo: the test would not reach the released case", i)
		}
		if !r.settled[first.client].has(1) {
			t.Fatalf("replica %d released the first request's memo without settling its timestamp", i)
		}
		digests[i], executions[i] = tc.apps[i].Digest(), r.Stats().FinalExecutions
	}

	byz.armed, replay.armed = true, true
	tc.rt.Run(tc.rt.Kernel().Now() + 15*time.Second)
	if byz.proposals != 1 {
		t.Fatalf("the leader re-proposed %d times, want 1", byz.proposals)
	}
	for i, r := range tc.replicas {
		// The duplicate instance ran its course: finally executed (counted),
		// with the command itself skipped.
		if got := r.Stats().FinalExecutions; got != executions[i]+1 {
			t.Errorf("replica %d: %d → %d final executions, want the re-proposed instance to reach execution", i, executions[i], got)
		}
		if d := tc.apps[i].Digest(); d != digests[i] {
			t.Errorf("replica %d: state digest changed: the old request was executed a second time", i)
		}
	}
	if v, _ := tc.apps[0].Get("ctr"); len(v) != 8 || v[7] != 1 {
		t.Fatalf("counter = %v, want exactly one increment", v)
	}
	tc.checkStateConvergence()
}

// TestTimestampSetMatchesMapModel drives tsSet and a map through random
// insertions — ascending runs, repeats, gaps that fill later — and requires
// equal membership and sorted, disjoint, non-adjacent ranges throughout.
func TestTimestampSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var set tsSet
		model := make(map[uint64]bool)
		if trial%2 == 1 {
			set = tsSet{{0, 20}} // as an installed snapshot seeds it
			for ts := uint64(0); ts <= 20; ts++ {
				model[ts] = true
			}
		}
		for step := 0; step < 120; step++ {
			ts := uint64(rng.Intn(80))
			set.add(ts)
			model[ts] = true
			for i, r := range set {
				if r.lo > r.hi || (i > 0 && set[i-1].hi+1 >= r.lo) {
					t.Fatalf("trial %d: ranges %v not sorted, disjoint and non-adjacent after adding %d", trial, set, ts)
				}
			}
		}
		for ts := uint64(0); ts < 90; ts++ {
			if set.has(ts) != model[ts] {
				t.Fatalf("trial %d: has(%d) = %v, model %v (ranges %v)", trial, ts, set.has(ts), model[ts], set)
			}
		}
	}
	// Consecutive timestamps, the case a replica sees, stay one range.
	var dense tsSet
	for ts := uint64(1); ts <= 1000; ts++ {
		dense.add(ts)
	}
	if len(dense) != 1 || dense[0] != (tsRange{1, 1000}) {
		t.Fatalf("1000 consecutive timestamps are held as %v, want one range", dense)
	}
}

// TestLostRequestSurvivesAFullPipeline: dropping a REQUEST from below the
// window is only safe because clients keep their outstanding timestamps
// inside it. An open-loop client with no in-flight cap loses its first
// request (every copy, retries included, for three seconds); it goes on
// issuing until that request is a window behind and then waits, so when the
// network heals the retry is still admitted and everything completes. Issued
// without the bound, the first request would sit 3000 timestamps back and
// every replica would drop it for good.
func TestLostRequestSurvivesAFullPipeline(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 8
	const total = 3 * workload.PipelineWindow
	loop := &workload.OpenLoop{Gen: &workload.KVGenerator{}, Interval: time.Millisecond, MaxRequests: total}
	opts.driver = func(int, *workload.FixedScript) workload.Driver { return loop }
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, [][]types.Command{nil})
	lost := true
	tc.rt.SetFilter(func(from, _ types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if req, ok := msg.(*Request); ok && lost && !from.IsReplica() && req.Cmd.Timestamp == 1 {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	})
	tc.rt.Start()
	tc.rt.Run(3 * time.Second)
	if st := tc.clients[0].Stats(); st.Submitted != workload.PipelineWindow || st.Completed != workload.PipelineWindow-1 {
		t.Fatalf("with its first request lost the client submitted %d and completed %d, want %d and %d",
			st.Submitted, st.Completed, workload.PipelineWindow, workload.PipelineWindow-1)
	}
	lost = false
	if !tc.rt.RunUntil(func() bool { return loop.Done() == total }, 120*time.Second) {
		t.Fatalf("%d of %d requests completed: the lost request was not admitted again", loop.Done(), total)
	}
	tc.rt.Run(tc.rt.Kernel().Now() + 2*time.Second)
	for i, r := range tc.replicas {
		if got := r.Stats().FinalExecutions; got != total {
			t.Errorf("replica %d executed %d commands, want %d", i, got, total)
		}
	}
	tc.checkStateConvergence()
}
