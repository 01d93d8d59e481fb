package zyzzyva_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
	"ezbft/internal/zyzzyva"
)

func harness(t *testing.T, spec *bench.Spec, scripts [][]types.Command) (*bench.Cluster, []*workload.FixedScript) {
	t.Helper()
	regions := []wan.Region{"a", "b", "c", "d"}
	pairs := make(map[[2]wan.Region]float64)
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			pairs[[2]wan.Region{regions[i], regions[j]}] = 10
		}
	}
	topo, err := wan.NewTopology("uniform", regions, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Protocol = bench.Zyzzyva
	spec.Topology = topo
	spec.ReplicaRegions = regions
	spec.Seed = 1
	spec.LatencyBound = 150 * time.Millisecond

	drivers := make([]*workload.FixedScript, len(scripts))
	for i, script := range scripts {
		i, script := i, script
		drivers[i] = &workload.FixedScript{Commands: script}
		spec.Clients = append(spec.Clients, bench.ClientGroup{
			Region:    regions[i%len(regions)],
			Count:     1,
			NewDriver: func(int) workload.Driver { return drivers[i] },
		})
	}
	cluster, err := bench.Build(*spec)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, drivers
}

func puts(prefix string, n int) []types.Command {
	out := make([]types.Command, n)
	for i := range out {
		out[i] = types.Command{Op: types.OpPut, Key: fmt.Sprintf("%s-%d", prefix, i), Value: []byte("v")}
	}
	return out
}

func runUntilDone(t *testing.T, cluster *bench.Cluster, drivers []*workload.FixedScript, deadline time.Duration) {
	t.Helper()
	cluster.RT.Start()
	done := cluster.RT.RunUntil(func() bool {
		for _, d := range drivers {
			if len(d.Results) < len(d.Commands) {
				return false
			}
		}
		return true
	}, deadline)
	if !done {
		t.Fatalf("workload incomplete before %v", deadline)
	}
}

// TestFastPathThreeSteps: with all replicas correct, every request
// completes on the fast path in three communication steps.
func TestFastPathThreeSteps(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 5)})
	runUntilDone(t, cluster, drivers, 30*time.Second)
	for _, res := range drivers[0].Results {
		if !res.FastPath {
			t.Fatal("expected fast-path completion")
		}
		// 1ms client hop + 2×10ms hops plus processing.
		if res.Latency < 21*time.Millisecond || res.Latency > 45*time.Millisecond {
			t.Fatalf("latency %v, want ≈3 steps", res.Latency)
		}
	}
	for i, r := range cluster.ZYReplicas {
		if r.MaxExecuted() != 5 {
			t.Fatalf("replica %d executed %d, want 5", i, r.MaxExecuted())
		}
	}
}

// TestCommitCertSlowPath: with one backup mute, 3f+1 matching responses
// are unreachable; the client falls back to the commit-certificate path
// (two extra steps) and still completes.
func TestCommitCertSlowPath(t *testing.T) {
	spec := &bench.Spec{Mute: map[types.ReplicaID]bool{3: true}}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 4)})
	runUntilDone(t, cluster, drivers, 60*time.Second)
	for _, res := range drivers[0].Results {
		if res.FastPath {
			t.Fatal("fast path should be unreachable with a mute replica")
		}
	}
	for i, r := range cluster.ZYReplicas[:3] {
		if r.Stats().LocalCommits == 0 {
			t.Fatalf("replica %d sent no LOCALCOMMITs", i)
		}
	}
	// Survivor state converges.
	for i := 1; i < 3; i++ {
		if cluster.Apps[i].Digest() != cluster.Apps[0].Digest() {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

// TestHistoryHashChain: responses for consecutive requests carry distinct
// chained history hashes, and a forged ORDERREQ with a broken chain is
// rejected.
func TestHistoryHashChain(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 2)})
	runUntilDone(t, cluster, drivers, 30*time.Second)
	r := cluster.ZYReplicas[1]
	before := r.Stats().DroppedInvalid
	// A forged ORDERREQ for the next sequence number with a bogus history
	// hash must be rejected even before signature checking trips (the
	// signature here is invalid too; both defenses stop it).
	r.Receive(nopCtx{}, types.ReplicaNode(0), &zyzzyva.OrderReq{
		View: 0, Seq: 3, HistHash: types.Digest{0xFF},
	})
	if r.Stats().DroppedInvalid <= before {
		t.Fatal("forged ORDERREQ accepted")
	}
}

type nopCtx struct{}

func (nopCtx) Now() time.Duration                   { return 0 }
func (nopCtx) Send(types.NodeID, codec.Message)     {}
func (nopCtx) SetTimer(proc.TimerID, time.Duration) {}
func (nopCtx) CancelTimer(proc.TimerID)             {}
func (nopCtx) Charge(time.Duration)                 {}
func (nopCtx) Rand() *rand.Rand                     { return rand.New(rand.NewSource(0)) }
