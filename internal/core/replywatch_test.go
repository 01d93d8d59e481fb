package core

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/sim"
	"ezbft/internal/types"
)

// The tests below pin the "Client timers" rules of the package comment on the
// simulator: 10 ms links, no processing cost, a 200 ms slow-path timer, one
// closed-loop client whose leader is R0. A fast decision takes three message
// delays (30 ms), a slow one five (50 ms).
const (
	watchDelay   = 10 * time.Millisecond
	fastLatency  = 3 * watchDelay
	slowLatency  = 5 * watchDelay
	watchTimeout = 200 * time.Millisecond
)

func watchOpts() clusterOpts {
	opts := defaultOpts()
	opts.delay = watchDelay
	opts.slowTimeout = watchTimeout
	return opts
}

// muteUntil drops everything the replica sends while *muted is true: it takes
// part in nothing another node can see, as a crashed or cut-off replica.
func muteUntil(id types.ReplicaID, muted *bool) sim.Filter {
	return func(from, _ types.NodeID, _ codec.Message) (sim.Verdict, time.Duration) {
		if *muted && from == types.ReplicaNode(id) {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	}
}

// TestSilentReplicaCostsTwoTimeouts: R3 answers nothing for fifty requests.
// The first two wait out the slow-path timer; after that the client takes the
// slow path as soon as R0–R2 have answered, in five message delays.
func TestSilentReplicaCostsTwoTimeouts(t *testing.T) {
	const requests = 50
	tc := newTestCluster(t, watchOpts(), []types.ReplicaID{0}, uniqueKeyScripts(1, requests))
	muted := true
	tc.rt.SetFilter(muteUntil(3, &muted))
	if !tc.run(60 * time.Second) {
		t.Fatal("workload did not complete")
	}
	st := tc.clients[0].Stats()
	if st.SlowTimeouts != 2 || st.SilentSkips != requests-2 || st.SlowDecisions != requests || st.FastDecisions != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v, want 2 slow timeouts, %d silent skips, %d slow decisions and nothing else", st, requests-2, requests)
	}
	for i, c := range tc.drivers[0].Results {
		want := slowLatency
		if i < 2 {
			want = watchTimeout + 2*watchDelay // the timer, then COMMIT and COMMITREPLY
		}
		if c.Latency != want {
			t.Fatalf("request %d took %v, want %v", i, c.Latency, want)
		}
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	ref := tc.apps[0].Digest()
	for i := 1; i < 3; i++ {
		if got := tc.apps[i].Digest(); got != ref {
			t.Fatalf("R%d digest %v != R0 digest %v", i, got, ref)
		}
	}
}

// TestLateReplicaIsNeverMarked: R3's replies take 0.8 × the timer longer than
// everyone's. They are late, not missing: every decision is fast, no timer
// fires, nobody is marked.
func TestLateReplicaIsNeverMarked(t *testing.T) {
	const requests = 20
	tc := newTestCluster(t, watchOpts(), []types.ReplicaID{0}, uniqueKeyScripts(1, requests))
	late := watchTimeout * 8 / 10
	tc.rt.SetFilter(func(from, to types.NodeID, _ codec.Message) (sim.Verdict, time.Duration) {
		if from == types.ReplicaNode(3) && to.IsClient() {
			return sim.Deliver, late
		}
		return sim.Deliver, 0
	})
	if !tc.run(60 * time.Second) {
		t.Fatal("workload did not complete")
	}
	st := tc.clients[0].Stats()
	if st.FastDecisions != requests || st.SlowDecisions != 0 || st.SlowTimeouts != 0 || st.SilentSkips != 0 {
		t.Fatalf("stats %+v, want %d fast decisions and nothing else", st, requests)
	}
	if got := tc.clients[0].watch.Silent(); got != 0 {
		t.Fatalf("silent = %b, want nobody", got)
	}
	for i, c := range tc.drivers[0].Results {
		if c.Latency != fastLatency+late {
			t.Fatalf("request %d took %v, want %v", i, c.Latency, fastLatency+late)
		}
	}
}

// TestReturningReplicaIsWaitedForAfterOneProbation: R3 is silent for ten
// requests and then honest. Its replies count at once — decisions are fast
// again from the first request it answers — but the client goes on sending the
// slow-path COMMIT without waiting for it until it has answered every request
// of one probation (4 × the timer); from then on no COMMIT is sent.
func TestReturningReplicaIsWaitedForAfterOneProbation(t *testing.T) {
	const silentFor, requests = 10, 80
	tc := newTestCluster(t, watchOpts(), []types.ReplicaID{0}, uniqueKeyScripts(1, requests))
	muted := true
	tc.rt.SetFilter(muteUntil(3, &muted))
	tc.rt.Start()
	done := func(n int) func() bool { return func() bool { return len(tc.drivers[0].Results) >= n } }
	if !tc.rt.RunUntil(done(silentFor), 60*time.Second) {
		t.Fatal("silent phase did not complete")
	}
	muted = false
	back := tc.rt.Now()
	if !tc.rt.RunUntil(done(requests), 60*time.Second) {
		t.Fatal("workload did not complete")
	}
	st := tc.clients[0].Stats()
	if st.SlowTimeouts != 2 || st.Retries != 0 {
		t.Fatalf("stats %+v, want 2 slow timeouts and no retry", st)
	}
	if got := tc.clients[0].watch.Silent(); got != 0 {
		t.Fatalf("silent = %b after %v of answers, want nobody", got, tc.rt.Now()-back)
	}
	probation := 4 * watchTimeout
	skipsAfter := 0
	for i, c := range tc.drivers[0].Results[silentFor+1:] {
		if !c.FastPath || c.Latency != fastLatency {
			t.Fatalf("request %d after R3 came back: fast=%v latency=%v, want a fast decision in %v",
				i+1, c.FastPath, c.Latency, fastLatency)
		}
		// The run of answers starts at the first decision R3 answered; the
		// mark lifts at the first decision a probation later.
		if c.At-tc.drivers[0].Results[silentFor+1].At >= probation {
			skipsAfter++
		}
	}
	// Every request between R3's return and the end of the probation sent a
	// COMMIT it turned out not to need; none after.
	wantSkips := uint64(requests - 2 - skipsAfter)
	if st.SilentSkips != wantSkips || skipsAfter == 0 {
		t.Fatalf("silent skips = %d, want %d (%d requests decided after the probation)", st.SilentSkips, wantSkips, skipsAfter)
	}
}

// TestOnlyVerifiedRepliesToPendingRequestsAreEvidence: what the watch learns
// comes from replies that passed verification for a request still pending. A
// SPECREPLY with a bad signature, one for another command, and one for a
// request already decided leave no trace.
func TestOnlyVerifiedRepliesToPendingRequestsAreEvidence(t *testing.T) {
	tc := newTestCluster(t, watchOpts(), []types.ReplicaID{0}, uniqueKeyScripts(1, 2))
	muted := true
	tc.rt.SetFilter(muteUntil(3, &muted))
	tc.rt.Start()
	c := tc.clients[0]
	// Stop with the first request pending and R0–R2's replies in.
	if !tc.rt.RunUntil(func() bool { p := c.Pending[1]; return p != nil && p.answered == 0b0111 }, time.Second) {
		t.Fatal("replies of R0-R2 did not arrive")
	}
	p := c.Pending[1]
	genuine := p.groups[0].lowest()
	forged := *genuine
	forged.Replica = 3 // R0's signature does not cover this body
	c.handleSpecReply(noopCtx{}, &forged)
	other := *genuine
	other.Replica, other.CmdDigest = 3, types.Digest{1}
	other.MarkSigVerified() // even a signature that verifies: it is for another command
	c.handleSpecReply(noopCtx{}, &other)
	if p.answered != 0b0111 || p.groups[0].count != 3 {
		t.Fatalf("answered = %b, group of %d: a reply that must be ignored was counted", p.answered, p.groups[0].count)
	}
	if !tc.run(10 * time.Second) {
		t.Fatal("workload did not complete")
	}
	if c.watch.Silent() != 0b1000 {
		t.Fatalf("silent = %b, want R3", c.watch.Silent())
	}
	// R3 now answers, correctly signed, the request that is no longer pending.
	stale := *genuine
	stale.Replica = 3
	stale.MarkSigVerified()
	before := c.watch
	c.handleSpecReply(noopCtx{}, &stale)
	if fmt.Sprintf("%+v", c.watch) != fmt.Sprintf("%+v", before) {
		t.Fatalf("a reply to a decided request changed the watch: %+v -> %+v", before, c.watch)
	}
}

// TestClientLeavesASilentLeader: the client's own command-leader R0 goes
// silent. Two requests find that out the hard way — nobody orders them until
// the retry timer rotates them to R1, and the owner change they set off
// retires R0's space — and mark it; the rest go to R1 at once and commit in
// slow-path latency. When R0 answers again, the client goes on submitting to
// R1 for one probation and then returns. R0 can no longer order, so it hands
// each request to R1: one more message delay, no retry timer.
func TestClientLeavesASilentLeader(t *testing.T) {
	const silentFor, requests = 10, 60
	opts := watchOpts()
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, uniqueKeyScripts(1, requests))
	muted := true
	direct := [4]int{} // fresh REQUESTs the client sent each replica
	tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if req, ok := msg.(*Request); ok && from.IsClient() && req.Orig == noOrig {
			direct[to.Replica()]++
		}
		return muteUntil(0, &muted)(from, to, msg)
	})
	tc.rt.Start()
	done := func(n int) func() bool { return func() bool { return len(tc.drivers[0].Results) >= n } }
	if !tc.rt.RunUntil(done(silentFor), 60*time.Second) {
		t.Fatal("silent phase did not complete")
	}
	st := tc.clients[0].Stats()
	if st.Retries != 2 || st.SlowTimeouts != 2 || st.SilentSkips != silentFor-2 {
		t.Fatalf("stats %+v, want 2 retries, 2 slow timeouts and %d silent skips", st, silentFor-2)
	}
	if direct != [4]int{2, silentFor + 1, 0, 0} {
		// R1's count includes the rotated copies of the two retried requests
		// and the request the driver issued when the last one completed.
		t.Fatalf("fresh REQUESTs per replica %v, want [2 %d 0 0]", direct, silentFor+1)
	}
	for i, c := range tc.drivers[0].Results {
		if i >= 2 && c.Latency != slowLatency {
			t.Fatalf("request %d took %v, want %v", i, c.Latency, slowLatency)
		}
		if i < 2 && c.Latency < opts.retryTimeout {
			t.Fatalf("request %d took %v, less than the retry timer", i, c.Latency)
		}
	}

	muted = false
	if !tc.rt.RunUntil(done(requests), 60*time.Second) {
		t.Fatal("workload did not complete")
	}
	st = tc.clients[0].Stats()
	if st.Retries != 2 || st.SlowTimeouts != 2 {
		t.Fatalf("stats %+v: the returning leader cost a retry or a timeout", st)
	}
	if got := tc.clients[0].watch.Silent(); got != 0 {
		t.Fatalf("silent = %b, want nobody", got)
	}
	if direct[0] <= 2 || direct[0]+direct[1] != requests+2 || direct[2]+direct[3] != 0 {
		t.Fatalf("fresh REQUESTs per replica %v: the client did not return to R0", direct)
	}
	if !tc.replicas[1].Frozen(0) {
		t.Fatal("R0 kept its space through two retries: the hand-over below is not what ran")
	}
	last := tc.drivers[0].Results[requests-1]
	if !last.FastPath || last.Latency != fastLatency+watchDelay {
		t.Fatalf("last request: fast=%v latency=%v, want a fast decision in %v", last.FastPath, last.Latency, fastLatency+watchDelay)
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	tc.checkStateConvergence()
}

// TestBatchPendingWhenSpaceIsLostIsHandedOff: R0 accumulates two clients'
// requests in a batch and loses its space before the batch flushes. The
// flush hands every request in it to R1 as a RESENDREQ, exactly as a
// request arriving after the loss is handed off: each commits one message
// delay later than it would have at R0, and no client waits out its retry
// timer.
func TestBatchPendingWhenSpaceIsLostIsHandedOff(t *testing.T) {
	const batchDelay = 50 * time.Millisecond
	opts := watchOpts()
	opts.batchSize = 8
	opts.batchDelay = batchDelay
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 0}, uniqueKeyScripts(2, 1))
	resends := 0
	tc.rt.SetFilter(func(from, _ types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if _, ok := msg.(*ResendReq); ok && from == types.ReplicaNode(0) {
			resends++
		}
		return sim.Deliver, 0
	})
	tc.rt.Start()
	tc.rt.Run(watchDelay + batchDelay/2) // both requests wait in R0's batch
	for c := range tc.clients {
		if key := (cmdKey{types.ClientID(c), 1}); !tc.replicas[0].batcher.Queued(key) {
			t.Fatalf("client %d's request is not waiting in R0's batch", c)
		}
	}
	tc.replicas[0].log.space(0).frozen = true
	if !tc.run(10 * time.Second) {
		t.Fatal("workload did not complete")
	}
	if resends != 2 {
		t.Fatalf("R0 sent %d RESENDREQs, want one per batched request", resends)
	}
	// Submit → R0, the batch delay, the hand-off to R1, then R1's fast path.
	want := watchDelay + batchDelay + watchDelay + 2*watchDelay
	for c, d := range tc.drivers {
		if st := tc.clients[c].Stats(); st.Retries != 0 {
			t.Fatalf("client %d retried: %+v", c, st)
		}
		if got := d.Results[0]; !got.FastPath || got.Latency != want {
			t.Fatalf("client %d: fast=%v latency=%v, want a fast decision in %v", c, got.FastPath, got.Latency, want)
		}
	}
}
