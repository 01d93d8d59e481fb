package ezbft

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ezbft/internal/core"
	"ezbft/internal/engine"
)

// TestTCPReplicaRestartRecovery is the durability subsystem's end-to-end
// proof on the TCP substrate, for ezBFT and for a sequenced protocol
// (Zyzzyva): a replica with a disk-backed store is hard-torn-down mid-run,
// restarted over the same directory, and must recover its executed prefix
// locally from the WAL + snapshot — then catch up only the instances it
// missed while down — until the cluster converges on identical state
// digests.
func TestTCPReplicaRestartRecovery(t *testing.T) {
	for _, p := range []Protocol{EZBFT, Zyzzyva} {
		t.Run(string(p), func(t *testing.T) { tcpRestartRecovery(t, p) })
	}
}

func tcpRestartRecovery(t *testing.T, protocol Protocol) {
	secret := []byte("restart-recovery")
	base := t.TempDir()
	const n = 4

	startReplica := func(i int, listen string, peers map[ReplicaID]string) *TCPReplica {
		t.Helper()
		rep, err := StartTCPReplica(TCPReplicaConfig{
			Protocol: protocol,
			ID:       ReplicaID(i),
			N:        n,
			Listen:   listen,
			Peers:    peers,
			Secret:   secret,
			// Frequent checkpoints with a deep retained suffix: the
			// restarted replica learns the cluster's stable mark quickly,
			// and peers still hold the log tail it missed, so rejoining
			// rides the incremental tail path instead of a wholesale
			// snapshot transfer.
			CheckpointInterval: 8,
			LogRetention:       256,
			StoreDir:           filepath.Join(base, fmt.Sprintf("r%d", i)),
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		return rep
	}

	replicas := make([]*TCPReplica, n)
	for i := range replicas {
		replicas[i] = startReplica(i, "127.0.0.1:0", nil)
	}
	defer func() {
		for _, rep := range replicas {
			if rep != nil {
				rep.Close()
			}
		}
	}()
	addrs := make(map[ReplicaID]string, n)
	for i, rep := range replicas {
		addrs[ReplicaID(i)] = rep.Addr()
	}
	exchange := func() {
		for i, rep := range replicas {
			for j := range replicas {
				if i != j {
					rep.SetPeer(ReplicaID(j), addrs[ReplicaID(j)])
				}
			}
		}
	}
	exchange()

	client, err := NewTCPClient(TCPClientConfig{
		Protocol:     protocol,
		ID:           0,
		N:            n,
		Nearest:      0,
		Replicas:     addrs,
		Secret:       secret,
		LatencyBound: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := t.Context()
	seq := 0
	put := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			key := fmt.Sprintf("k%d", seq)
			if _, err := client.Execute(ctx, Put(key, []byte(fmt.Sprintf("v%d", seq)))); err != nil {
				t.Fatalf("execute %s: %v", key, err)
			}
			seq++
		}
	}

	// Phase 1: enough traffic to cross several checkpoint intervals, so
	// the victim's store holds a durable snapshot plus a WAL tail.
	put(16)

	// Hard teardown: no graceful handoff, just the process-death
	// equivalent. The disk store directory survives.
	const victim = 3
	if err := replicas[victim].Close(); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	replicas[victim] = nil

	// Phase 2: the surviving quorum keeps committing while the victim is
	// down — these are the instances it must later catch up.
	put(6)

	// Restart over the same store directory, rebinding the address the
	// crashed incarnation held (a restarted process keeps its host:port;
	// peers and clients redial it on demand). The replica recovers its
	// pre-crash state locally before any peer contact.
	peers := make(map[ReplicaID]string, n-1)
	for id, addr := range addrs {
		if id != victim {
			peers[id] = addr
		}
	}
	replicas[victim] = startReplica(victim, addrs[victim], peers)
	exchange()

	// Phase 3: post-restart traffic produces fresh stable checkpoints,
	// which is how the recovered replica learns what it missed.
	put(16)

	// The cluster must converge: every replica — the restarted one
	// included — ends at the same state digest.
	deadline := time.Now().Add(15 * time.Second)
	for {
		digests := make(map[string]bool, n)
		for _, rep := range replicas {
			digests[rep.StateDigest()] = true
		}
		if len(digests) == 1 {
			break
		}
		if time.Now().After(deadline) {
			all := make([]string, n)
			for i, rep := range replicas {
				all[i] = rep.StateDigest()
			}
			_ = replicas[victim].Close()
			if rep, ok := replicas[victim].Replica().(*core.Replica); ok {
				t.Logf("victim stats: %+v", rep.Stats())
			}
			replicas[victim] = nil
			t.Fatalf("digests did not converge after restart: %v", all)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Committed state must read back through the restarted cluster.
	res, err := client.Execute(ctx, Get("k0"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || string(res.Value) != "v0" {
		t.Fatalf("get k0 = %+v, want v0", res)
	}

	// Stop the restarted replica and audit its stats: it must have
	// recovered from the store, and an ezBFT replica rejoined by tail
	// catch-up alone — the executed prefix it already held must not have
	// been re-transferred wholesale.
	if err := replicas[victim].Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	rep := replicas[victim].Replica()
	replicas[victim] = nil
	if wal, ok := rep.(interface{ WALStats() engine.WALStats }); !ok || wal.WALStats().Recoveries == 0 {
		t.Error("restarted replica reports no recovery from its durable store")
	}
	if ez, ok := rep.(*core.Replica); ok {
		if st := ez.Stats(); st.CatchupsInstalled > st.TailsInstalled {
			t.Errorf("restarted replica installed %d wholesale state transfer(s); want tail-only rejoin", st.CatchupsInstalled-st.TailsInstalled)
		}
	}
}
