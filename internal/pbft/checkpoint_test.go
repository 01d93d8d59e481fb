package pbft_test

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/types"
)

// TestCheckpointTruncationBoundsLog drives sustained load through a
// checkpointing PBFT cluster and asserts the slot map and reply cache stay
// bounded while the replicas agree.
func TestCheckpointTruncationBoundsLog(t *testing.T) {
	const perClient = 120
	spec := &bench.Spec{CheckpointInterval: 8}
	cluster, drivers := harness(t, spec, [][]types.Command{
		puts("a", perClient), puts("b", perClient), puts("c", perClient),
	})
	runUntilDone(t, cluster, drivers, 600*time.Second)
	cluster.RT.Run(cluster.RT.Kernel().Now() + 5*time.Second)

	for i, r := range cluster.PBReplicas {
		st := r.Stats()
		if st.Checkpoints == 0 || st.TruncatedEntries == 0 {
			t.Fatalf("replica %d did not checkpoint/truncate: %+v", i, st)
		}
		if st.LowWaterMark == 0 {
			t.Fatalf("replica %d has no low-water mark", i)
		}
		bound := 3 * 8 // a few intervals of lag
		if got := r.SlotCount(); got > bound {
			t.Fatalf("replica %d retains %d slots (> %d) of %d", i, got, bound, 3*perClient)
		}
	}
	requireConvergence(t, cluster, nil)
}

// TestCatchupRejoin partitions one backup away, advances the cluster past
// the retention window, lifts the partition, and verifies the backup
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
		if partitioned && to == lagging {
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
	if cluster.PBReplicas[0].Stats().TruncatedEntries == 0 {
		t.Fatal("connected replicas truncated nothing during the partition")
	}
	if cluster.PBReplicas[3].MaxExecuted() != 0 {
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

	st := cluster.PBReplicas[3].Stats()
	if st.CatchupsInstalled == 0 {
		t.Fatalf("lagging replica installed no state transfer: %+v", st)
	}
	served := uint64(0)
	for _, r := range cluster.PBReplicas[:3] {
		served += r.Stats().CatchupsServed
	}
	if served == 0 {
		t.Fatal("no replica served a state transfer")
	}
	// The rejoined backup converges to within the live suffix; a final
	// checkpoint plus transfer must leave the application states equal.
	ref := cluster.Apps[0].Digest()
	if got := cluster.Apps[3].Digest(); got != ref {
		t.Fatalf("rejoined replica diverged: %v != %v", got, ref)
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
// state transfer (installing the executed-timestamp table alongside the
// snapshot), a byte-identical duplicate REQUEST for a command the snapshot
// already reflects must not be re-executed anywhere. The caught-up backup
// no longer holds the original reply, so it forwards; the primary must
// answer from its reply cache and never assign a fresh sequence number.
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
	if cluster.PBReplicas[3].Stats().CatchupsInstalled == 0 {
		t.Fatal("lagging replica installed no state transfer")
	}

	// Replay client 0's first command (snapshot-covered, pre-partition) at
	// the caught-up backup. The signature was already checked upstream in
	// this modeled delivery.
	dup := &pbft.Request{Cmd: types.Command{
		Client: 0, Timestamp: 1, Op: types.OpPut, Key: "a-0", Value: []byte("v"),
	}}
	dup.MarkSigVerified()

	before := cluster.Apps[0].Digest()
	backupCtx := &dupCtx{}
	cluster.PBReplicas[3].Receive(backupCtx, types.ClientNode(0), dup)
	var forwarded *pbft.Request
	for _, m := range backupCtx.sends {
		if r, ok := m.(*pbft.Request); ok {
			forwarded = r
		}
	}
	if forwarded == nil {
		t.Fatal("caught-up backup neither answered nor forwarded the duplicate")
	}

	primaryCtx := &dupCtx{}
	cluster.PBReplicas[0].Receive(primaryCtx, types.ReplicaNode(3), forwarded)
	var replied bool
	for _, m := range primaryCtx.sends {
		switch m.(type) {
		case *pbft.Reply:
			replied = true
		case *pbft.PrePrepare:
			t.Fatal("primary re-ordered a duplicate of an executed request")
		}
	}
	if !replied {
		t.Fatal("primary did not serve the cached reply for the duplicate")
	}
	if got := cluster.Apps[0].Digest(); got != before {
		t.Fatal("duplicate request changed the primary's application state")
	}
	requireConvergence(t, cluster, nil)
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
	midway := make([]int, len(cluster.PBReplicas))
	for i, r := range cluster.PBReplicas {
		midway[i] = r.RequestStateCount()
	}
	if !cluster.RT.RunUntil(completed(perClient), 7200*time.Second) {
		t.Fatal("workload did not complete")
	}
	cluster.RT.Run(cluster.RT.Kernel().Now() + 5*time.Second)
	for i, r := range cluster.PBReplicas {
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
