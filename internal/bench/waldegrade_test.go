package bench

import (
	"errors"
	"testing"
	"time"

	"ezbft/internal/core"
	"ezbft/internal/pbft"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// errInjected is the write-path failure the degrade tests inject.
var errInjected = errors.New("injected store failure")

// failingStore wraps a backend and, once armed, fails every write-path
// call (Append, Sync, SaveSnapshot) while leaving the read path intact —
// the partial-store shape a replica sees when its disk fills or its
// volume flips read-only mid-run. The durable prefix written before
// arming stays readable, so a restart over the store recovers it.
type failingStore struct {
	inner store.Store
	fail  bool
}

func (f *failingStore) Append(kind uint8, data []byte) (uint64, error) {
	if f.fail {
		return 0, errInjected
	}
	return f.inner.Append(kind, data)
}

func (f *failingStore) Sync() error {
	if f.fail {
		return errInjected
	}
	return f.inner.Sync()
}

func (f *failingStore) SaveSnapshot(data []byte) error {
	if f.fail {
		return errInjected
	}
	return f.inner.SaveSnapshot(data)
}

func (f *failingStore) LoadSnapshot() ([]byte, uint64, error) { return f.inner.LoadSnapshot() }

func (f *failingStore) Replay(fn func(store.Record) error) error { return f.inner.Replay(fn) }

func (f *failingStore) Empty() bool { return f.inner.Empty() }

func (f *failingStore) Close() error { return f.inner.Close() }

// TestWALDegrade arms a write failure on one replica's store mid-run and
// demands graceful degradation, not a wedge: the workload keeps
// completing, the cluster converges, and the failure is surfaced through
// ReplicaStats.WALFailed on exactly the injured replica. The replica is
// then hard-crashed and restarted over the partial store: it must
// recover the durable prefix written before the failure, rejoin through
// catch-up, and — since the store still refuses writes — surface
// WALFailed again in its next incarnation.
func TestWALDegrade(t *testing.T) {
	for _, proto := range []Protocol{EZBFT, PBFT} {
		t.Run(string(proto), func(t *testing.T) {
			topo := wan.DeploymentA()
			var done int
			rec := recorderFunc(func(types.ClientID, workload.Completion) { done++ })
			stores := make([]*failingStore, len(topo.Regions()))
			spec := Spec{
				Protocol:           proto,
				Topology:           topo,
				ReplicaRegions:     topo.Regions(),
				Seed:               1,
				CheckpointInterval: 8,
				LogRetention:       256,
				NewStore: func(i int) (store.Store, error) {
					stores[i] = &failingStore{inner: store.NewMemory()}
					return stores[i], nil
				},
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

			walStats := func(i int) (failed bool, recoveries uint64) {
				switch rep := cl.Replicas[i].(type) {
				case *core.Replica:
					st := rep.Stats()
					return st.WALFailed, st.Recoveries
				case *pbft.Replica:
					st := rep.Stats()
					return st.WALFailed, st.Recoveries
				}
				t.Fatalf("replica %d: unexpected engine type", i)
				return false, 0
			}
			converged := func(stage string) {
				t.Helper()
				digests := make([]string, len(cl.Apps))
				for i, app := range cl.Apps {
					digests[i] = app.Digest().String()
				}
				for i := 1; i < len(digests); i++ {
					if digests[i] != digests[0] {
						t.Fatalf("%s: digests diverged: %v", stage, digests)
					}
				}
			}

			cl.RT.Start()
			cl.RT.RunUntil(func() bool { return done >= 12 }, 10*time.Second)
			if done < 12 {
				t.Fatalf("phase 1 stalled at %d completions", done)
			}

			// Mid-run write failure on replica 3: the replica must degrade to
			// non-durable operation, not wedge the workload.
			stores[3].fail = true
			mid := done
			cl.RT.RunUntil(func() bool { return done >= mid+16 }, cl.RT.Now()+10*time.Second)
			cl.RT.Run(cl.RT.Now() + 5*time.Second)
			if done < mid+16 {
				t.Fatalf("workload wedged after store failure: %d/%d completions", done-mid, 16)
			}
			converged("after degrade")
			if failed, _ := walStats(3); !failed {
				t.Error("injured replica does not surface WALFailed")
			}
			if failed, _ := walStats(0); failed {
				t.Error("healthy replica spuriously reports WALFailed")
			}

			// Restart over the partial store: the prefix written before the
			// failure recovers, catch-up closes the rest, and the still-broken
			// write path surfaces WALFailed in the new incarnation too.
			cl.RT.Crash(types.ReplicaNode(3))
			mid = done
			cl.RT.RunUntil(func() bool { return done >= mid+6 }, cl.RT.Now()+10*time.Second)
			if done < mid+6 {
				t.Fatalf("quorum stalled with replica 3 down: %d/%d", done-mid, 6)
			}
			if err := cl.RestartReplica(3); err != nil {
				t.Fatal(err)
			}
			mid = done
			cl.RT.RunUntil(func() bool { return done >= mid+16 }, cl.RT.Now()+10*time.Second)
			cl.RT.Run(cl.RT.Now() + 5*time.Second)
			if done < mid+16 {
				t.Fatalf("workload wedged after restart: %d/%d completions", done-mid, 16)
			}
			converged("after restart")
			failed, recoveries := walStats(3)
			if recoveries == 0 {
				t.Error("restarted replica reports no recovery from its partial store")
			}
			if !failed {
				t.Error("restarted replica over a broken store does not surface WALFailed")
			}
		})
	}
}
