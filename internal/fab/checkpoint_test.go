package fab_test

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/fab"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/types"
)

// TestCheckpointTruncationBoundsLog drives sustained load through a
// checkpointing FaB cluster and asserts the log stays bounded while the
// replicas agree.
func TestCheckpointTruncationBoundsLog(t *testing.T) {
	const perClient = 120
	spec := &bench.Spec{CheckpointInterval: 8}
	cluster, drivers := harness(t, spec, [][]types.Command{
		puts("a", perClient), puts("b", perClient), puts("c", perClient),
	})
	runUntilDone(t, cluster, drivers, 600*time.Second)
	cluster.RT.Run(cluster.RT.Kernel().Now() + 5*time.Second)

	for i, r := range cluster.FBReplicas {
		st := r.Stats()
		if st.Checkpoints == 0 || st.TruncatedEntries == 0 {
			t.Fatalf("replica %d did not checkpoint/truncate: %+v", i, st)
		}
		if st.LowWaterMark == 0 {
			t.Fatalf("replica %d has no low-water mark", i)
		}
		bound := 3 * 8
		if got := r.SlotCount(); got > bound {
			t.Fatalf("replica %d retains %d slots (> %d) of %d", i, got, bound, 3*perClient)
		}
	}
	ref := cluster.Apps[0].Digest()
	for i, app := range cluster.Apps[1:] {
		if app.Digest() != ref {
			t.Fatalf("replica %d state diverged", i+1)
		}
	}
}

// TestCatchupRejoin partitions one acceptor away, advances the cluster past
// the retention window, lifts the partition, and verifies the acceptor
// rejoins through verifiable state transfer and converges.
func TestCatchupRejoin(t *testing.T) {
	const perClient = 80
	spec := &bench.Spec{CheckpointInterval: 4}
	cluster, drivers := harness(t, spec, [][]types.Command{
		puts("a", perClient), puts("b", perClient), puts("c", perClient),
	})

	lagging := types.ReplicaNode(3)
	partitioned := true
	cluster.RT.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if partitioned && (to == lagging || from == lagging) {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	})

	cluster.RT.Start()
	half := cluster.RT.RunUntil(func() bool {
		for _, d := range drivers {
			if len(d.Results) < perClient/2 {
				return false
			}
		}
		return true
	}, 600*time.Second)
	if !half {
		t.Fatal("first phase did not complete")
	}
	if cluster.FBReplicas[0].Stats().TruncatedEntries == 0 {
		t.Fatal("connected replicas truncated nothing during the partition")
	}
	if cluster.FBReplicas[3].MaxExecuted() != 0 {
		t.Fatal("partitioned replica executed during the partition")
	}

	partitioned = false
	done := cluster.RT.RunUntil(func() bool {
		for _, d := range drivers {
			if len(d.Results) < perClient {
				return false
			}
		}
		return true
	}, 1200*time.Second)
	if !done {
		t.Fatal("second phase did not complete")
	}
	cluster.RT.Run(cluster.RT.Kernel().Now() + 10*time.Second)

	st := cluster.FBReplicas[3].Stats()
	if st.CatchupsInstalled == 0 {
		t.Fatalf("lagging replica installed no state transfer: %+v", st)
	}
	served := uint64(0)
	for _, r := range cluster.FBReplicas[:3] {
		served += r.Stats().CatchupsServed
	}
	if served == 0 {
		t.Fatal("no replica served a state transfer")
	}
	ref := cluster.Apps[0].Digest()
	if got := cluster.Apps[3].Digest(); got != ref {
		t.Fatalf("rejoined replica diverged: %v != %v", got, ref)
	}
}

// TestRequestStateBounded runs far more requests per client than the
// retention window holds (TestCheckpointTruncationBoundsLog stops inside it,
// where keeping everything is correct) and requires the per-request tables
// — reply cache, exactly-once table — to stay within the contract:
// engine.ReplyRetention requests per client plus whatever the retained
// slots still back, and no growth between the half-way point and the end.
func TestRequestStateBounded(t *testing.T) {
	const clients, perClient, interval = 2, 2400, 64
	spec := &bench.Spec{CheckpointInterval: interval}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", perClient), puts("b", perClient)})
	completed := func(each int) func() bool {
		return func() bool {
			for _, d := range drivers {
				if len(d.Results) < each {
					return false
				}
			}
			return true
		}
	}
	cluster.RT.Start()
	if !cluster.RT.RunUntil(completed(perClient/2), 3600*time.Second) {
		t.Fatal("first half did not complete")
	}
	midway := make([]int, len(cluster.FBReplicas))
	for i, r := range cluster.FBReplicas {
		midway[i] = r.RequestStateCount()
	}
	if !cluster.RT.RunUntil(completed(perClient), 7200*time.Second) {
		t.Fatal("workload did not complete")
	}
	cluster.RT.Run(cluster.RT.Kernel().Now() + 5*time.Second)
	for i, r := range cluster.FBReplicas {
		got := r.RequestStateCount()
		if bound := clients*engine.ReplyRetention + r.SlotCount(); got > bound {
			t.Errorf("replica %d keeps state for %d of %d requests, bound %d (%d per client + %d slots)",
				i, got, clients*perClient, bound, engine.ReplyRetention, r.SlotCount())
		}
		// The two samples fall at different points of the checkpoint cycle.
		if got > midway[i]+interval {
			t.Errorf("replica %d: per-request state grew from %d half-way to %d at the end", i, midway[i], got)
		}
	}
	ref := cluster.Apps[0].Digest()
	for i, app := range cluster.Apps[1:] {
		if app.Digest() != ref {
			t.Fatalf("replica %d state diverged", i+1)
		}
	}
}

// dupCtx records sends for direct-handler tests.
type dupCtx struct {
	sends []codec.Message
}

func (c *dupCtx) Now() time.Duration                   { return 0 }
func (c *dupCtx) Send(_ types.NodeID, m codec.Message) { c.sends = append(c.sends, m) }
func (c *dupCtx) SetTimer(proc.TimerID, time.Duration) {}
func (c *dupCtx) CancelTimer(proc.TimerID)             {}
func (c *dupCtx) Charge(time.Duration)                 {}
func (c *dupCtx) Rand() *rand.Rand                     { return rand.New(rand.NewSource(0)) }

// TestDuplicateRequestAfterCatchup: after a lagging backup rejoins via
// state transfer, a byte-identical duplicate REQUEST for a command the
// installed snapshot already reflects must not be executed again anywhere.
// The caught-up backup either answers it from its reply cache or forwards
// it; the primary must then answer from its reply cache and never order it
// afresh.
func TestDuplicateRequestAfterCatchup(t *testing.T) {
	const perClient = 80
	spec := &bench.Spec{CheckpointInterval: 4}
	cluster, drivers := harness(t, spec, [][]types.Command{
		puts("a", perClient), puts("b", perClient), puts("c", perClient),
	})
	lagging := types.ReplicaNode(3)
	partitioned := true
	cluster.RT.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if partitioned && to == lagging {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	})
	cluster.RT.Start()
	completed := func(each int) func() bool {
		return func() bool {
			for _, d := range drivers {
				if len(d.Results) < each {
					return false
				}
			}
			return true
		}
	}
	if !cluster.RT.RunUntil(completed(perClient/2), 600*time.Second) {
		t.Fatal("first phase did not complete")
	}
	partitioned = false
	if !cluster.RT.RunUntil(completed(perClient), 1200*time.Second) {
		t.Fatal("second phase did not complete")
	}
	cluster.RT.Run(cluster.RT.Kernel().Now() + 10*time.Second)
	reps := cluster.FBReplicas
	if reps[3].Stats().CatchupsInstalled == 0 {
		t.Fatal("lagging replica installed no state transfer")
	}

	// Replay client 0's first command (snapshot-covered, pre-partition) at
	// the caught-up backup. The signature was already checked upstream in
	// this modeled delivery.
	dup := &fab.Request{Cmd: types.Command{
		Client: 0, Timestamp: 1, Op: types.OpPut, Key: "a-0", Value: []byte("v"),
	}}
	dup.MarkSigVerified()
	before := make([]types.Digest, len(cluster.Apps))
	for i, app := range cluster.Apps {
		before[i] = app.Digest()
	}
	answered := func(sends []codec.Message) (replied bool, forwarded *fab.Request) {
		for _, m := range sends {
			switch m := m.(type) {
			case *fab.Reply:
				replied = true
			case *fab.Request:
				forwarded = m
			case *fab.Propose:
				t.Fatal("a duplicate of an executed request was ordered again")
			}
		}
		return replied, forwarded
	}
	backupCtx := &dupCtx{}
	reps[3].Receive(backupCtx, types.ClientNode(0), dup)
	replied, forwarded := answered(backupCtx.sends)
	if !replied {
		if forwarded == nil {
			t.Fatal("caught-up backup neither answered nor forwarded the duplicate")
		}
		primaryCtx := &dupCtx{}
		reps[0].Receive(primaryCtx, types.ReplicaNode(3), forwarded)
		if replied, _ := answered(primaryCtx.sends); !replied {
			t.Fatal("primary did not serve the cached reply for the duplicate")
		}
	}
	for i, app := range cluster.Apps {
		if app.Digest() != before[i] {
			t.Fatalf("duplicate request changed replica %d's application state", i)
		}
	}
}
