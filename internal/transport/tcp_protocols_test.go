package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/proc"
	"ezbft/internal/transport"
	"ezbft/internal/types"
	"ezbft/internal/workload"

	// Link every built-in protocol engine into the test binary.
	_ "ezbft/internal/core"
	_ "ezbft/internal/fab"
	_ "ezbft/internal/pbft"
	_ "ezbft/internal/zyzzyva"
)

// syncDriver bridges completions to blocking test calls.
type syncDriver struct{ results chan workload.Completion }

func (d *syncDriver) Start(proc.Context, workload.Submitter) {}
func (d *syncDriver) Completed(_ proc.Context, _ workload.Submitter, c workload.Completion) {
	d.results <- c
}
func (d *syncDriver) OnTimer(proc.Context, workload.Submitter, proc.TimerID) {}

// tcpWorkloadDigest assembles one protocol on real loopback TCP — four
// replicas behind verify pools, two blocking clients — exactly the wiring
// cmd/ezbft-server and cmd/ezbft-client use, runs a fixed workload, and
// returns the converged state digest.
func tcpWorkloadDigest(t *testing.T, proto engine.Protocol, batch int) string {
	t.Helper()
	eng, err := engine.Lookup(proto)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	ring := auth.NewHMACKeyring([]byte("tcp-protocols-test"))

	peers := make([]*transport.TCPPeer, n)
	nodes := make([]*transport.LiveNode, n)
	pools := make([]*transport.VerifyPool, n)
	stores := make([]*kvstore.Store, n)
	for i := 0; i < n; i++ {
		rid := types.ReplicaID(i)
		stores[i] = kvstore.New()
		a := ring.ForNode(types.ReplicaNode(rid))
		rep, err := eng.NewReplica(engine.ReplicaOptions{
			Self: rid, N: n, App: stores[i], Auth: a,
			Primary:      0,
			LatencyBound: 250 * time.Millisecond,
			BatchSize:    batch,
			BatchDelay:   5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		node := transport.NewLiveNode(rep, nil, int64(i)+1)
		pool := transport.NewVerifyPool(2, eng.InboundVerifier(a, n),
			func(from types.NodeID, msg codec.Message) { node.Deliver(from, msg) })
		peer, err := transport.NewTCPPeer(types.ReplicaNode(rid), "127.0.0.1:0", nil, pool.Submit)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		node.SetSender(peer)
		peers[i], nodes[i], pools[i] = peer, node, pool
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				peers[i].SetAddr(types.ReplicaNode(types.ReplicaID(j)), peers[j].Addr())
			}
		}
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for i := range nodes {
			nodes[i].Stop()
			_ = peers[i].Close()
			pools[i].Close()
		}
	}()

	addrs := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		addrs[types.ReplicaNode(types.ReplicaID(i))] = peers[i].Addr()
	}

	const clients = 2
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		cid := types.ClientID(c)
		bridge := &syncDriver{results: make(chan workload.Completion, 1)}
		cl, err := eng.NewClient(engine.ClientOptions{
			ID: cid, N: n,
			Nearest: types.ReplicaID(c % n), Primary: 0,
			Auth: ring.ForNode(types.ClientNode(cid)), Driver: bridge,
			LatencyBound: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		clientNode := transport.NewLiveNode(cl, nil, int64(c)+100)
		clientPeer, err := transport.NewTCPPeer(types.ClientNode(cid), "127.0.0.1:0", addrs,
			func(from types.NodeID, msg codec.Message) { clientNode.Deliver(from, msg) })
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		for rid := range addrs {
			if err := clientPeer.Connect(rid); err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
		}
		clientNode.SetSender(clientPeer)
		clientNode.Start()
		defer func() {
			clientNode.Stop()
			_ = clientPeer.Close()
		}()

		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			script := []types.Command{
				{Op: types.OpPut, Key: fmt.Sprintf("k%d", c), Value: []byte("v")},
				{Op: types.OpIncr, Key: "shared"},
			}
			for _, cmd := range script {
				if err := clientNode.Inject(func(ctx proc.Context) { cl.Submit(ctx, cmd) }); err != nil {
					errs <- err
					return
				}
				select {
				case <-bridge.results:
				case <-time.After(20 * time.Second):
					errs <- fmt.Errorf("client %d: command timed out", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("%s: %v", proto, err)
	}

	// Converged means every replica reports the same digest AND the state
	// is complete (final execution may lag the client-visible commit).
	// Completeness is read first: once replica 0 holds the whole workload its
	// state no longer changes, so its digest cannot be from a moment before
	// its last execution that the others still happen to share.
	complete := func(s *kvstore.Store) bool {
		for c := 0; c < clients; c++ {
			if v, ok := s.Get(fmt.Sprintf("k%d", c)); !ok || string(v) != "v" {
				return false
			}
		}
		v, ok := s.Get("shared")
		return ok && kvstore.Counter(v) == clients
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		same := complete(stores[0])
		ref := stores[0].Digest()
		for i := 1; same && i < n; i++ {
			if stores[i].Digest() != ref {
				same = false
			}
		}
		if same {
			return ref.String()
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: replicas never converged over TCP", proto)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPAllProtocols: every registered protocol runs on the real TCP
// substrate — verify pools, framed codec, HMAC — and all four converge to
// the same state on the same workload, batched and unbatched.
func TestTCPAllProtocols(t *testing.T) {
	protocols := []engine.Protocol{engine.EZBFT, engine.PBFT, engine.Zyzzyva, engine.FaB}
	for _, batch := range []int{1, 4} {
		digests := make(map[engine.Protocol]string, len(protocols))
		for _, proto := range protocols {
			digests[proto] = tcpWorkloadDigest(t, proto, batch)
		}
		ref := digests[protocols[0]]
		for _, proto := range protocols[1:] {
			if digests[proto] != ref {
				t.Fatalf("batch=%d: %s state diverged from %s", batch, proto, protocols[0])
			}
		}
	}
}
