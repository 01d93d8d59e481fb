package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/sim"
	"ezbft/internal/types"
)

// chainedKeyScripts builds per-client scripts over keys of the client's own
// that repeat every `keys` commands, so each instance depends on an earlier
// one of its space without conflicting with another client's.
func chainedKeyScripts(clients, perClient, keys int) [][]types.Command {
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		for i := range perClient {
			scripts[c] = append(scripts[c], putCmd(fmt.Sprintf("c%d-k%d", c, i%keys), fmt.Sprintf("v%d", i)))
		}
	}
	return scripts
}

// logged is every entry pointer a replica's log and pending table hold.
func (r *Replica) logged() map[*entry]bool {
	held := make(map[*entry]bool)
	for _, sp := range r.log.spaces {
		for _, e := range sp.entries {
			held[e] = true
		}
	}
	for _, e := range r.pendingExec {
		held[e] = true
	}
	return held
}

// sharedSlices is what an entry shares with SPECORDERs, replies and
// histories — its slices as they were and a copy of their contents — so a
// later check can tell whether anything wrote into them.
type sharedSlices struct {
	inst                      types.InstanceID
	deps, depsWas             types.InstanceSet
	extra, extraWas           []types.Command
	cmdDigests, cmdDigestsWas []types.Digest
	extraFinal, extraFinalWas []types.Result
}

func shareOf(e *entry) sharedSlices {
	return sharedSlices{
		inst: e.inst,
		deps: e.deps, depsWas: slices.Clone(e.deps),
		extra: e.extra, extraWas: slices.Clone(e.extra),
		cmdDigests: e.cmdDigests, cmdDigestsWas: slices.Clone(e.cmdDigests),
		extraFinal: e.extraFinal, extraFinalWas: slices.Clone(e.extraFinal),
	}
}

func (s sharedSlices) unchanged() bool {
	return reflect.DeepEqual(s.deps, s.depsWas) && reflect.DeepEqual(s.extra, s.extraWas) &&
		reflect.DeepEqual(s.cmdDigests, s.cmdDigestsWas) && reflect.DeepEqual(s.extraFinal, s.extraFinalWas)
}

// checkFreeList fails the test unless every entry on the replica's free
// list is zero, on it once, and in neither the log nor the pending table.
func checkFreeList(t *testing.T, i int, r *Replica) {
	t.Helper()
	held := r.logged()
	seen := make(map[*entry]bool)
	for _, e := range r.freeEntries {
		switch {
		case held[e]:
			t.Fatalf("replica %d: free entry %p is still in the log or pending", i, e)
		case seen[e]:
			t.Fatalf("replica %d: entry %p is on the free list twice", i, e)
		case !reflect.ValueOf(*e).IsZero():
			t.Fatalf("replica %d: free entry is not zero: %+v", i, *e)
		}
		seen[e] = true
	}
}

// TestTruncatedEntriesAreRecycled drives replicas past several stable
// checkpoints at a small interval, then orders more and checks the free
// list truncation fills, every 5 ms of simulated time: no entry on it is
// still in a log or the pending table, every one is zero, no entry is
// allocated that was not logged before, and the slices a recycled entry had
// shared are never written again.
func TestTruncatedEntriesAreRecycled(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			opts := defaultOpts()
			opts.ckptInterval = 4
			opts.batchSize = batch
			// Two clients per leader, so that batches form when batching is on.
			const clients, perClient, interval = 6, 96, 4
			tc := newTestCluster(t, opts, []types.ReplicaID{0, 1, 2, 0, 1, 2}, chainedKeyScripts(clients, perClient, 2))
			tc.rt.Start()
			if !tc.runScripts(perClient/2, 120*time.Second) {
				t.Fatal("first half did not complete")
			}
			// known is every entry a replica holds now, logged or free;
			// before and reused are the instances it logged before and
			// logs from here on.
			known := make([]map[*entry]bool, tc.n)
			before := make([]map[types.InstanceID]bool, tc.n)
			reused := make([]map[types.InstanceID]bool, tc.n)
			var shared []sharedSlices
			for i, r := range tc.replicas {
				if lw := r.LowWaterMark(0); lw < 2*interval {
					t.Fatalf("replica %d: space 0 stable at %d, want at least two checkpoints", i, lw)
				}
				known[i], before[i], reused[i] = r.logged(), make(map[types.InstanceID]bool), make(map[types.InstanceID]bool)
				for e := range known[i] {
					shared = append(shared, shareOf(e))
					before[i][e.inst] = true
				}
				for _, e := range r.freeEntries {
					known[i][e] = true
				}
			}
			// At least two more intervals of every leader's space, and the
			// checkpoints that free them.
			freeSeen := make([]bool, tc.n)
			target := perClient/2 + 2*interval
			for done := false; !done; {
				step := tc.rt.Now() + 5*time.Millisecond
				if done = tc.runScripts(target, step); !done {
					tc.rt.Run(step)
				}
				for i, r := range tc.replicas {
					checkFreeList(t, i, r)
					freeSeen[i] = freeSeen[i] || len(r.freeEntries) > 0
					for e := range r.logged() {
						if !known[i][e] {
							t.Fatalf("replica %d allocated a new entry for %v (%d entries known)", i, e.inst, len(known[i]))
						}
						if !before[i][e.inst] {
							reused[i][e.inst] = true
						}
					}
				}
				if tc.rt.Now() > 240*time.Second {
					t.Fatal("second stretch did not complete")
				}
			}
			for i, seen := range freeSeen {
				if !seen || len(reused[i]) < 3*interval {
					t.Errorf("replica %d: free entries seen %v, %d instances logged in reused entries", i, seen, len(reused[i]))
				}
			}
			for _, s := range shared {
				if !s.unchanged() {
					t.Fatalf("the slices entry %v shared were written after it was freed", s.inst)
				}
			}
			if !tc.run(240 * time.Second) {
				t.Fatal("workload did not complete")
			}
			tc.rt.Run(tc.rt.Kernel().Now() + 5*time.Second)
			if mb := tc.replicas[0].Stats().MaxBatch; (batch > 1) != (mb > 1) {
				t.Errorf("largest batch %d at batch size %d", mb, batch)
			}
			tc.checkConsistency()
			tc.checkStateConvergence()
		})
	}
}

// TestSlowPathRepliesSurviveTruncation: with a checkpoint at every slot and
// the commit decisions reaching replica 2 late (and replica 3 later still),
// replica 2's own vote is the third, which makes each checkpoint stable
// inside the final execution whose mark advance cast it; the truncation
// that follows frees (and recycles) the very entry being executed. The
// COMMITREPLYs that entry owes must still go out, one per replica for every
// slow-path decision.
func TestSlowPathRepliesSurviveTruncation(t *testing.T) {
	opts := defaultOpts()
	opts.ckptInterval = 1
	const clients, perClient = 3, 40
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 1, 2}, hotKeyScripts(clients, perClient))
	replies := 0
	tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		switch msg.(type) {
		case *CommitReply:
			replies++
		case *Commit, *CommitFast:
			switch to {
			case types.ReplicaNode(2):
				return sim.Deliver, 3 * opts.delay
			case types.ReplicaNode(3):
				return sim.Deliver, 6 * opts.delay
			}
		}
		return sim.Deliver, 0
	})
	if !tc.run(120 * time.Second) {
		t.Fatal("workload did not complete")
	}
	tc.rt.Run(tc.rt.Now() + 5*time.Second)
	slow := 0
	for _, c := range tc.clients {
		slow += int(c.ClientStats().SlowDecisions)
	}
	truncated := 0
	for _, r := range tc.replicas {
		truncated += int(r.Stats().TruncatedEntries)
	}
	if slow == 0 || truncated == 0 {
		t.Fatalf("%d slow-path decisions, %d entries truncated: the test needs both", slow, truncated)
	}
	if want := tc.n * slow; replies != want {
		t.Fatalf("%d COMMITREPLYs for %d slow-path decisions, want %d", replies, slow, want)
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}
