package pbft_test

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/pbft"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// harness builds a 4-replica PBFT deployment on a uniform-delay topology
// with one scripted client per script.
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
	spec.Protocol = bench.PBFT
	spec.Topology = topo
	spec.ReplicaRegions = regions
	spec.Seed = 1
	spec.LatencyBound = 150 * time.Millisecond

	drivers := make([]*workload.FixedScript, len(scripts))
	for i, script := range scripts {
		i, script := i, script
		drivers[i] = &workload.FixedScript{Commands: script}
		spec.Clients = append(spec.Clients, bench.ClientGroup{
			Region: regions[i%len(regions)],
			Count:  1,
			NewDriver: func(int) workload.Driver {
				return drivers[i]
			},
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

func requireConvergence(t *testing.T, cluster *bench.Cluster, skip map[int]bool) {
	t.Helper()
	ref := -1
	for i, app := range cluster.Apps {
		if skip[i] {
			continue
		}
		if ref == -1 {
			ref = i
			continue
		}
		if app.Digest() != cluster.Apps[ref].Digest() {
			t.Fatalf("replica %d state diverged from replica %d", i, ref)
		}
	}
}

func TestNormalCaseCommit(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 5), puts("b", 5)})
	runUntilDone(t, cluster, drivers, 30*time.Second)
	cluster.RT.Run(cluster.RT.Now() + time.Second)

	for i, r := range cluster.PBReplicas {
		if got := r.MaxExecuted(); got != 10 {
			t.Fatalf("replica %d executed %d, want 10", i, got)
		}
		st := r.Stats()
		if st.Prepared != 10 || st.Committed != 10 {
			t.Fatalf("replica %d stats %+v", i, st)
		}
	}
	requireConvergence(t, cluster, nil)
}

// TestFiveCommunicationSteps: on a uniform 10ms network PBFT commits in
// exactly five steps (request, pre-prepare, prepare, commit, reply).
func TestFiveCommunicationSteps(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 3)})
	runUntilDone(t, cluster, drivers, 30*time.Second)
	for _, res := range drivers[0].Results {
		// Client in region a, primary in region a: 1ms + 4×10ms hops plus
		// processing; allow up to 1.5 hops of overhead.
		if res.Latency < 41*time.Millisecond || res.Latency > 66*time.Millisecond {
			t.Fatalf("latency %v, want ≈5 steps (41-66ms)", res.Latency)
		}
	}
}

// TestGetSeesPriorPut: reads observe earlier committed writes.
func TestGetSeesPriorPut(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{{
		{Op: types.OpPut, Key: "k", Value: []byte("val")},
		{Op: types.OpGet, Key: "k"},
	}})
	runUntilDone(t, cluster, drivers, 30*time.Second)
	res := drivers[0].Results[1].Result
	if !res.OK || string(res.Value) != "val" {
		t.Fatalf("GET = %+v", res)
	}
}

// TestCheckpointGarbageCollection: with a small checkpoint interval the
// stable checkpoint advances and old slots are discarded.
func TestCheckpointGarbageCollection(t *testing.T) {
	spec := &bench.Spec{CheckpointInterval: 4}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 12)})
	runUntilDone(t, cluster, drivers, 60*time.Second)
	cluster.RT.Run(cluster.RT.Now() + time.Second)
	for i, r := range cluster.PBReplicas {
		if r.StableCheckpoint() < 8 {
			t.Fatalf("replica %d stable checkpoint %d, want ≥8", i, r.StableCheckpoint())
		}
		if r.Stats().Checkpoints == 0 {
			t.Fatalf("replica %d recorded no stable checkpoints", i)
		}
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := pbft.NewReplica(pbft.ReplicaConfig{N: 5}); err == nil {
		t.Fatal("accepted N=5")
	}
	if _, err := pbft.NewReplica(pbft.ReplicaConfig{N: 4}); err == nil {
		t.Fatal("accepted nil app/auth")
	}
	if _, err := pbft.NewClient(pbft.ClientConfig{N: 3}); err == nil {
		t.Fatal("client accepted N=3")
	}
	if _, err := pbft.NewClient(pbft.ClientConfig{N: 4}); err == nil {
		t.Fatal("client accepted nil auth/driver")
	}
}
