package bench

import (
	"testing"
	"time"

	"ezbft/internal/core"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// TestClusterRestartDiskRecovery drives the simulated cluster's restart
// path over the disk store backend with all traffic in a single owner
// space — the shape a real single-client deployment produces, and the
// one the scenario matrix (clients at every region) does not cover.
// Replica 3 is torn down mid-run, restarted over its on-disk store, and
// must recover its executed prefix locally, rejoin by tail catch-up
// only, and converge with the cluster.
func TestClusterRestartDiskRecovery(t *testing.T) {
	topo := wan.DeploymentA()
	var done int
	rec := recorderFunc(func(types.ClientID, workload.Completion) { done++ })
	spec := Spec{
		Protocol:           EZBFT,
		Topology:           topo,
		ReplicaRegions:     topo.Regions(),
		Seed:               1,
		CheckpointInterval: 8,
		LogRetention:       256,
		Durability:         store.BackendDisk,
		StoreDir:           t.TempDir(),
		Clients: []ClientGroup{{
			Region: topo.Regions()[0],
			Count:  1,
			NewDriver: func(int) workload.Driver {
				return &workload.ClosedLoop{
					Gen:      &workload.KVGenerator{Contention: 0},
					Recorder: rec,
				}
			},
		}},
	}
	cl, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.CloseStores()
	cl.RT.Start()
	cl.RT.RunUntil(func() bool { return done >= 16 }, 10*time.Second)
	if done < 16 {
		t.Fatalf("phase 1 stalled at %d completions", done)
	}

	cl.RT.Crash(types.ReplicaNode(3))
	mid := done
	cl.RT.RunUntil(func() bool { return done >= mid+6 }, cl.RT.Now()+10*time.Second)
	if done < mid+6 {
		t.Fatalf("quorum stalled at %d completions with replica 3 down", done)
	}

	if err := cl.RestartReplica(3); err != nil {
		t.Fatal(err)
	}
	mid = done
	cl.RT.RunUntil(func() bool { return done >= mid+16 }, cl.RT.Now()+10*time.Second)
	cl.RT.Run(cl.RT.Now() + 5*time.Second)

	digests := make([]string, 4)
	for i, app := range cl.Apps {
		digests[i] = app.Digest().String()
	}
	for i := 1; i < 4; i++ {
		if digests[i] != digests[0] {
			t.Fatalf("digests diverged after restart: %v", digests)
		}
	}
	st := cl.Replicas[3].(*core.Replica).Stats()
	if st.Recoveries == 0 {
		t.Error("restarted replica reports no recovery from its disk store")
	}
	if wholesale := st.CatchupsInstalled - st.TailsInstalled; wholesale > 0 {
		t.Errorf("restarted replica installed %d wholesale state transfer(s); want tail-only rejoin", wholesale)
	}
}

type recorderFunc func(types.ClientID, workload.Completion)

func (f recorderFunc) Record(c types.ClientID, comp workload.Completion) { f(c, comp) }
