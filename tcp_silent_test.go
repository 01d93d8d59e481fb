package ezbft

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ezbft/internal/core"
)

// startTCPCluster starts four HMAC replicas on loopback, exchanges their
// addresses, and returns them with the address map a client needs. The
// replicas are closed when the test ends (closing twice is harmless).
func startTCPCluster(t *testing.T, checkpoint uint64) ([]*TCPReplica, map[ReplicaID]string) {
	t.Helper()
	const n = 4
	replicas := make([]*TCPReplica, n)
	addrs := make(map[ReplicaID]string, n)
	for i := range replicas {
		rep, err := StartTCPReplica(TCPReplicaConfig{
			ID: ReplicaID(i), N: n, Secret: []byte("silent"), CheckpointInterval: checkpoint,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		t.Cleanup(func() { rep.Close() })
		replicas[i] = rep
		addrs[ReplicaID(i)] = rep.Addr()
	}
	for _, rep := range replicas {
		for id, addr := range addrs {
			rep.SetPeer(id, addr)
		}
	}
	return replicas, addrs
}

// TestTCPOneReplicaDown is the guarantee of engine.ReplyWatch end to end: with
// R3 closed, a client of the default 500 ms latency bound waits it out for
// two requests and not for the other 198, whose median is the slow path's
// processor time.
func TestTCPOneReplicaDown(t *testing.T) {
	replicas, addrs := startTCPCluster(t, 0)
	if err := replicas[3].Close(); err != nil {
		t.Fatal(err)
	}
	client, err := NewTCPClient(TCPClientConfig{ID: 0, Replicas: addrs, Secret: []byte("silent")})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const requests = 200
	want := NewKVStore()
	latencies := make([]time.Duration, requests)
	for i := range latencies {
		cmd := Put(fmt.Sprintf("k%d", i), []byte("v"))
		want.Apply(cmd)
		f, err := client.Submit(t.Context(), cmd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(t.Context()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		latencies[i] = f.Latency()
	}
	slices.Sort(latencies)
	if median := latencies[requests/2]; median >= 50*time.Millisecond {
		t.Errorf("median latency %v with one replica down, want under 50ms", median)
	}
	st := client.Stats()
	if st.SlowTimeouts != 2 || st.SilentSkips != requests-2 || st.SlowDecisions != requests || st.Retries != 0 {
		t.Errorf("stats %+v, want 2 slow timeouts, %d silent skips, %d slow decisions and no retry", st, requests-2, requests)
	}
	for _, rep := range replicas[:3] {
		waitForDigest(t, rep, want.Digest().String())
	}
}

// waitForDigest waits for a replica to reach the state digest want, that of a
// store the test applied the same commands to (final execution trails the
// client-visible commit).
func waitForDigest(t *testing.T, rep *TCPReplica, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rep.StateDigest() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica digest %s, want %s", rep.StateDigest(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPFaultFreeMarksNobodyAndTransfersNothing: where every replica
// answers, no client ever waits out its slow-path timer or skips a replica
// (the run is the one it was before engine.ReplyWatch), and no replica asks
// for a state transfer — a COMMITFAST merely in flight when a checkpoint
// becomes stable is not a hole. Pipelined load across several checkpoint
// intervals, as the benchmark's tcp_ezbft workload runs it.
func TestTCPFaultFreeMarksNobodyAndTransfersNothing(t *testing.T) {
	const interval, clients, perClient, inflight = 512, 2, 1500, 16
	replicas, addrs := startTCPCluster(t, interval)
	want := NewKVStore()
	for c := 0; c < clients; c++ {
		client, err := NewTCPClient(TCPClientConfig{
			ID: ClientID(c), Nearest: ReplicaID(2 * c), Replicas: addrs, Secret: []byte("silent"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		window := make([]*Future, 0, inflight)
		for i := 0; i < perClient+inflight; i++ {
			if len(window) == inflight || i >= perClient {
				if _, err := window[0].Wait(t.Context()); err != nil {
					t.Fatalf("client %d: %v", c, err)
				}
				window = window[1:]
			}
			if i < perClient {
				cmd := Put(fmt.Sprintf("c%d-k%d", c, i), []byte("v"))
				want.Apply(cmd)
				f, err := client.Submit(t.Context(), cmd)
				if err != nil {
					t.Fatal(err)
				}
				window = append(window, f)
			}
		}
		if st := client.Stats(); st.SlowTimeouts != 0 || st.SilentSkips != 0 || st.Retries != 0 || st.Completed != perClient {
			t.Errorf("client %d stats %+v, want %d completions, no timeout, no skip, no retry", c, st, perClient)
		}
	}
	for _, rep := range replicas {
		waitForDigest(t, rep, want.Digest().String())
	}
	for i, rep := range replicas {
		rep.Close()
		st := rep.Replica().(*core.Replica).Stats()
		if st.Checkpoints == 0 {
			t.Errorf("replica %d: no stable checkpoint in %d commands at interval %d", i, clients*perClient, interval)
		}
		if st.CatchupsInstalled != 0 || st.CatchupsServed != 0 {
			t.Errorf("replica %d installed %d and served %d state transfers on a fault-free run", i, st.CatchupsInstalled, st.CatchupsServed)
		}
	}
}
