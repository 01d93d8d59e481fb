package ezbft

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/core"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
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
// processor time. A host stall of 500 ms can cost one more wait, so on
// wall-clock TCP the count may reach four; the exact two is pinned on the
// simulator (internal/core, TestSilentReplicaCostsTwoTimeouts). The median
// moves only if a hundred requests wait.
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
	if st.SlowTimeouts < 2 || st.SlowTimeouts > 4 || st.SlowDecisions != requests || st.Retries != 0 {
		t.Errorf("stats %+v, want 2 slow timeouts (4 at most on a stalled host), %d slow decisions and no retry", st, requests)
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

// The fault-free run below, in both substrates: two clients whose leaders are
// R0 and R2, each pipelining 1500 PUTs on keys of its own, 16 in flight,
// across several checkpoint intervals — the benchmark's tcp_ezbft shape.
const (
	faultFreeInterval  = 512
	faultFreeClients   = 2
	faultFreePerClient = 1500
	faultFreeInflight  = 16
)

// TestTCPFaultFreeMarksNobodyAndTransfersNothing: where every replica
// answers, no client skips a replica (nobody is marked silent) and no
// replica asks for a state transfer — a COMMITFAST merely in flight when a
// checkpoint becomes stable is not a hole — or fetches a commit. On
// wall-clock loopback TCP a client may legitimately wait out its slow-path
// timer once (a host stall of 500 ms delays one reply), so the exact count of
// timeouts, zero, is asserted by the simulator twin,
// TestSimFaultFreeMarksNobodyAndTransfersNothing.
func TestTCPFaultFreeMarksNobodyAndTransfersNothing(t *testing.T) {
	const interval, clients, perClient, inflight = faultFreeInterval, faultFreeClients, faultFreePerClient, faultFreeInflight
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
		if st := client.Stats(); st.SilentSkips != 0 || st.Retries != 0 || st.Completed != perClient {
			t.Errorf("client %d stats %+v, want %d completions, no skip, no retry", c, st, perClient)
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
		if st.CatchupsInstalled != 0 || st.CatchupsServed != 0 || st.CommitFetches != 0 {
			t.Errorf("replica %d installed %d and served %d state transfers and sent %d COMMITFETCHes on a fault-free run",
				i, st.CatchupsInstalled, st.CatchupsServed, st.CommitFetches)
		}
	}
}

// TestSimFaultFreeMarksNobodyAndTransfersNothing is the fault-free TCP run on
// the simulator, where time is virtual and a stall cannot happen: no client
// waits out its slow-path timer even once, nobody is marked, every decision
// is fast, and no replica transfers state or fetches a commit.
func TestSimFaultFreeMarksNobodyAndTransfersNothing(t *testing.T) {
	regions := []wan.Region{"r0", "r1", "r2", "r3"}
	links := make(map[[2]wan.Region]float64)
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			links[[2]wan.Region{regions[i], regions[j]}] = 0.1
		}
	}
	topo, err := wan.NewTopology("loopback", regions, links, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var drivers []*pipelined
	spec := bench.Spec{
		Protocol: EZBFT, Topology: topo, ReplicaRegions: regions,
		LatencyBound: 500 * time.Millisecond, CheckpointInterval: faultFreeInterval, Seed: 7,
	}
	for c := 0; c < faultFreeClients; c++ {
		spec.Clients = append(spec.Clients, bench.ClientGroup{
			Region: regions[2*c], Count: 1,
			NewDriver: func(int) workload.Driver {
				d := &pipelined{prefix: fmt.Sprintf("c%d", c), total: faultFreePerClient, inflight: faultFreeInflight}
				drivers = append(drivers, d)
				return d
			},
		})
	}
	cl, err := bench.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(60 * time.Second)
	for c, client := range cl.Clients {
		st := client.ClientStats()
		if st.Completed != faultFreePerClient || st.FastDecisions != faultFreePerClient ||
			st.SlowTimeouts != 0 || st.SilentSkips != 0 || st.Retries != 0 {
			t.Errorf("client %d stats %+v, want %d fast decisions and nothing else", c, st, faultFreePerClient)
		}
	}
	for i, rep := range cl.EZReplicas {
		st := rep.Stats()
		if st.Checkpoints == 0 || st.CatchupsInstalled != 0 || st.CatchupsServed != 0 || st.CommitFetches != 0 {
			t.Errorf("replica %d: %d stable checkpoints, %d transfers installed, %d served, %d COMMITFETCHes; want some, none, none, none",
				i, st.Checkpoints, st.CatchupsInstalled, st.CatchupsServed, st.CommitFetches)
		}
	}
}

// pipelined keeps inflight PUTs outstanding, on keys of its own, until it
// has submitted total.
type pipelined struct {
	prefix          string
	total, inflight int
	sent            int
}

func (d *pipelined) Start(ctx proc.Context, s workload.Submitter) {
	for d.sent < d.inflight {
		d.next(ctx, s)
	}
}

func (d *pipelined) Completed(ctx proc.Context, s workload.Submitter, _ workload.Completion) {
	d.next(ctx, s)
}

func (d *pipelined) OnTimer(proc.Context, workload.Submitter, proc.TimerID) {}

func (d *pipelined) next(ctx proc.Context, s workload.Submitter) {
	if d.sent == d.total {
		return
	}
	s.Submit(ctx, types.Command{Op: types.OpPut, Key: fmt.Sprintf("%s-k%d", d.prefix, d.sent), Value: []byte("v")})
	d.sent++
}
