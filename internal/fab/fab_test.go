package fab_test

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/fab"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
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
	spec.Protocol = bench.FaB
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

// TestFourCommunicationSteps: FaB's common case is four client-visible
// steps: request, propose, accept (all-to-all), reply.
func TestFourCommunicationSteps(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 4)})
	runUntilDone(t, cluster, drivers, 30*time.Second)
	for _, res := range drivers[0].Results {
		// 1ms client hop + 3×10ms hops plus processing.
		if res.Latency < 31*time.Millisecond || res.Latency > 55*time.Millisecond {
			t.Fatalf("latency %v, want ≈4 steps", res.Latency)
		}
	}
	for i, r := range cluster.FBReplicas {
		if r.MaxExecuted() != 4 {
			t.Fatalf("replica %d executed %d, want 4", i, r.MaxExecuted())
		}
		st := r.Stats()
		if st.Learned != 4 || st.Accepted != 4 {
			t.Fatalf("replica %d stats %+v", i, st)
		}
	}
}

// TestTwoClientsInterleaved: concurrent clients' commands all commit and
// state converges.
func TestTwoClientsInterleaved(t *testing.T) {
	spec := &bench.Spec{}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 5), puts("b", 5)})
	runUntilDone(t, cluster, drivers, 60*time.Second)
	cluster.RT.Run(cluster.RT.Now() + time.Second)
	for i := 1; i < 4; i++ {
		if cluster.Apps[i].Digest() != cluster.Apps[0].Digest() {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

// TestLearnedDespiteOneSilentAcceptor: the accept quorum is 2f+1 = 3, so a
// single silent acceptor does not block learning.
func TestLearnedDespiteOneSilentAcceptor(t *testing.T) {
	spec := &bench.Spec{Mute: map[types.ReplicaID]bool{2: true}}
	cluster, drivers := harness(t, spec, [][]types.Command{puts("a", 4)})
	runUntilDone(t, cluster, drivers, 60*time.Second)
	for _, i := range []int{0, 1, 3} {
		if cluster.FBReplicas[i].MaxExecuted() != 4 {
			t.Fatalf("replica %d executed %d, want 4", i, cluster.FBReplicas[i].MaxExecuted())
		}
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := fab.NewReplica(fab.ReplicaConfig{N: 6}); err == nil {
		t.Fatal("accepted N=6")
	}
	if _, err := fab.NewReplica(fab.ReplicaConfig{N: 4}); err == nil {
		t.Fatal("accepted nil app/auth")
	}
	if _, err := fab.NewClient(fab.ClientConfig{N: 4}); err == nil {
		t.Fatal("client accepted nil auth/driver")
	}
}
