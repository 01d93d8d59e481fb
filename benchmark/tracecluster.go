package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ezbft"
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/core"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/transport"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// replicaCounters are the protocol counters the layer table reads, one
// replica's worth; fields a protocol does not keep stay zero.
type replicaCounters [numCounters]uint64

const (
	slowCommits = iota
	deferredCommits
	droppedInvalid
	ownerChanges // view changes under PBFT
	checkpoints
	truncated
	batches
	batchedRequests
	numCounters
)

func countersOf(rep proc.Process) replicaCounters {
	switch r := engine.Unwrap(rep).(type) {
	case *core.Replica:
		s := r.Stats()
		return replicaCounters{
			slowCommits: s.SlowCommits, deferredCommits: s.DeferredCommits,
			droppedInvalid: s.DroppedInvalid, ownerChanges: s.OwnerChanges,
			checkpoints: s.Checkpoints, truncated: s.TruncatedEntries,
			batches: s.Batches, batchedRequests: s.BatchedRequests,
		}
	case *pbft.Replica:
		s := r.Stats()
		return replicaCounters{
			droppedInvalid: s.DroppedInvalid, ownerChanges: s.ViewChanges,
			checkpoints: s.Checkpoints, truncated: s.TruncatedEntries,
		}
	}
	return replicaCounters{}
}

// tracedReplica is one replica of the self-assembled cluster.
type tracedReplica struct {
	rep   proc.Process
	app   *kvstore.Store
	node  *transport.LiveNode
	close func()
}

// layerProbe is the traced deployment's measuring side: the tracer, the
// replicas whose counters it snapshots, and what it saw at the boundaries.
type layerProbe struct {
	tr       *tracer
	replicas []*tracedReplica
	clients  []loadClient
	live     []bool // replicas still running (the down one is not)
	cached   bool   // authenticators sit behind a verify cache

	t0           int64  // first measured instant on the tracer's clock
	traced       []bool // per window: tracing was on
	first, last  []replicaCounters
	clientsFirst []ezbft.ClientStats
	clientsLast  []ezbft.ClientStats
}

// boundary runs at window boundary w of n windows: it snapshots the
// counters at the first and last, and turns tracing on for the odd
// windows, so traced and untraced windows interleave and any drift in the
// run falls on both alike.
func (lp *layerProbe) boundary(w, n int) {
	if w == 0 {
		lp.t0 = lp.tr.now()
		lp.first = lp.snapshot()
		for _, cl := range lp.clients {
			lp.clientsFirst = append(lp.clientsFirst, cl.Stats())
		}
	}
	if w == n {
		lp.tr.on.Store(false)
		lp.last = lp.snapshot()
		for _, cl := range lp.clients {
			lp.clientsLast = append(lp.clientsLast, cl.Stats())
		}
		return
	}
	// A single window is traced; a full buffer stays off.
	on := (w%2 == 1 || n == 1) && lp.tr.fullAt.Load() == 0
	lp.traced = append(lp.traced, on)
	lp.tr.on.Store(on)
}

// snapshot reads every live replica's counters on the replica's own loop.
func (lp *layerProbe) snapshot() []replicaCounters {
	out := make([]replicaCounters, len(lp.replicas))
	for i, r := range lp.replicas {
		if !lp.live[i] {
			continue
		}
		got := make(chan replicaCounters, 1)
		if err := r.node.Inject(func(proc.Context) { got <- countersOf(r.rep) }); err != nil {
			continue
		}
		select {
		case out[i] = <-got:
		case <-r.node.Done():
		case <-time.After(requestBudget):
		}
	}
	return out
}

// deployTraced assembles the workload's cluster from the same parts the
// public constructors use, with a timing wrapper around every interface a
// layer is injected through. The wiring mirrors NewLiveCluster (mesh) and
// StartTCPReplica / NewTCPClient (TCP); the differences are the wrappers.
func deployTraced(sp spec, scratch string, tr *tracer) (*deployment, error) {
	d := &deployment{probe: &layerProbe{tr: tr, cached: sp.mesh}}
	eng, err := engine.Lookup(sp.protocol)
	if err != nil {
		return d, err
	}
	var nodes []types.NodeID
	for i := 0; i < numReplicas; i++ {
		nodes = append(nodes, types.ReplicaNode(types.ReplicaID(i)))
	}
	for c := 0; c < numClients; c++ {
		nodes = append(nodes, types.ClientNode(types.ClientID(c)))
	}
	// Every node's untraced authenticator; the mesh shares one verify
	// cache across all of them, the TCP substrate runs without one.
	raw := make(map[types.NodeID]auth.Authenticator, len(nodes))
	if sp.ecdsa {
		ring, err := auth.NewECDSAKeyring(nil, nodes)
		if err != nil {
			return d, err
		}
		for _, n := range nodes {
			if raw[n], err = ring.ForNode(n); err != nil {
				return d, err
			}
		}
	} else {
		ring := auth.NewHMACKeyring(tcpSecret)
		for _, n := range nodes {
			raw[n] = ring.ForNode(n)
		}
	}
	var cache *auth.VerifyCache
	if sp.mesh {
		cache = auth.NewVerifyCache(0)
	}
	// authFor builds a traced authenticator for a node whose spans hang
	// under *parent.
	authFor := func(np *nodeProbe, id types.NodeID, parent *int32) auth.Authenticator {
		outer := &tracedAuth{inner: raw[id], np: np, parent: parent, sign: kindSign, verify: kindVerify, cur: -1}
		if cache != nil {
			miss := &tracedAuth{inner: raw[id], np: np, parent: &outer.cur, verify: kindVerifyMiss, cur: -1}
			outer.inner = auth.Cached(miss, id, cache)
		}
		return outer
	}

	dir, err := d.storeDir(sp, scratch)
	if err != nil {
		return d, err
	}
	var mesh *transport.Mesh
	if sp.mesh {
		mesh = transport.NewMesh(sp.delay)
	}
	// attach puts a node behind its verify pool on the workload's
	// substrate and returns what closes the transport side.
	attach := func(np *nodeProbe, id types.NodeID, node *transport.LiveNode) (peer *transport.TCPPeer, closeFn func(), err error) {
		onSubmit, verify, deliver := np.poolFuncs(func(parent *int32) func(codec.Message) bool {
			if v := eng.InboundVerifier(authFor(np, id, parent), numReplicas); v != nil {
				return v
			}
			return func(codec.Message) bool { return true }
		}, node)
		pool := transport.NewVerifyPool(0, verify, deliver)
		if sp.mesh {
			mesh.AttachPool(node, pool)
			return nil, func() { mesh.Detach(node); pool.Close() }, nil
		}
		peer, err = transport.NewTCPPeer(id, "127.0.0.1:0", nil, func(from types.NodeID, msg codec.Message) {
			onSubmit(msg)
			pool.Submit(from, msg)
		})
		if err != nil {
			pool.Close()
			return nil, func() {}, err
		}
		node.SetSender(&tracedSender{inner: peer, np: np})
		return peer, func() { peer.Close(); pool.Close() }, nil
	}

	lp := d.probe
	peers := make([]*transport.TCPPeer, numReplicas)
	for i := 0; i < numReplicas; i++ {
		rid := types.ReplicaID(i)
		np := newNodeProbe(tr, i)
		var st store.Store
		if sp.disk {
			disk, err := store.OpenDisk(filepath.Join(dir, fmt.Sprintf("r%d", i)), false)
			if err != nil {
				return d, err
			}
			st = &tracedStore{Store: disk, np: np}
		}
		app := kvstore.New()
		opts := engine.ReplicaOptions{
			Self: rid, N: numReplicas, Store: st,
			Auth:               authFor(np, types.ReplicaNode(rid), &np.cur),
			App:                &tracedApp{inner: app, np: np},
			CheckpointInterval: sp.checkpoint,
		}
		if sp.mesh {
			opts.LatencyBound = 500 * time.Millisecond // as NewLiveCluster sets it
		}
		rep, err := eng.NewReplica(opts)
		if err != nil {
			if st != nil {
				st.Close()
			}
			return d, err
		}
		var sender transport.Sender
		if sp.mesh {
			sender = &tracedSender{inner: mesh, np: np}
		}
		node := transport.NewLiveNode(&tracedProc{Process: rep, np: np}, sender, int64(i)+1)
		peer, closeTransport, err := attach(np, types.ReplicaNode(rid), node)
		r := &tracedReplica{rep: rep, app: app, node: node}
		var once sync.Once
		r.close = func() {
			once.Do(func() {
				node.Stop()
				closeTransport()
				if st != nil {
					st.Close()
				}
			})
		}
		d.onClose(r.close)
		if err != nil {
			return d, err
		}
		peers[i] = peer
		lp.replicas = append(lp.replicas, r)
		lp.live = append(lp.live, true)
	}
	addrs := make(map[types.NodeID]string, numReplicas)
	if !sp.mesh {
		for i, p := range peers {
			addrs[types.ReplicaNode(types.ReplicaID(i))] = p.Addr()
		}
		for _, p := range peers {
			for id, addr := range addrs {
				p.SetAddr(id, addr)
			}
		}
	}
	for _, r := range lp.replicas {
		r.node.Start()
	}
	d.digests = func() []string {
		var out []string
		for i, r := range lp.replicas {
			if lp.live[i] {
				out = append(out, r.app.Digest().String())
			}
		}
		return out
	}
	if sp.down >= 0 {
		d.stopDown = func() {
			lp.live[sp.down] = false
			lp.replicas[sp.down].close()
		}
	}

	for c := 0; c < numClients; c++ {
		cid := types.ClientID(c)
		np := newNodeProbe(tr, numReplicas+c)
		bridge := &futureBridge{waiters: make(map[uint64]*tracedFuture)}
		opts := engine.ClientOptions{
			ID: cid, N: numReplicas, Nearest: clientHome(sp, c), Primary: clientHome(sp, c),
			Auth: authFor(np, types.ClientNode(cid), &np.cur), Driver: bridge,
			LatencyBound: 500 * time.Millisecond, // NewTCPClient's default
		}
		if sp.mesh {
			opts.Primary, opts.LatencyBound = 0, 200*time.Millisecond // as LiveCluster.NewClient sets them
		}
		inner, err := eng.NewClient(opts)
		if err != nil {
			return d, err
		}
		var sender transport.Sender
		if sp.mesh {
			sender = &tracedSender{inner: mesh, np: np}
		}
		node := transport.NewLiveNode(&tracedProc{Process: inner, np: np}, sender, int64(c)+1000)
		peer, closeTransport, err := attach(np, types.ClientNode(cid), node)
		cl := &tracedClient{node: node, inner: inner, bridge: bridge, np: np, detach: closeTransport}
		d.onClose(func() { cl.Close() })
		if err != nil {
			return d, err
		}
		if peer != nil {
			for id, addr := range addrs {
				peer.SetAddr(id, addr)
			}
			// Pre-register with every replica, as NewTCPClient does, so
			// replies ride the client's own connections.
			for id := range addrs {
				if err := peer.Connect(id); err != nil {
					return d, err
				}
			}
		}
		node.Start()
		d.clients = append(d.clients, cl)
	}
	lp.clients = d.clients
	return d, nil
}

// tracedClient is the benchmark's stand-in for ezbft.Client on the
// self-assembled cluster: the same injected Submit and timestamp-keyed
// future bridge, plus a loop span around the submission.
type tracedClient struct {
	node   *transport.LiveNode
	inner  engine.Client
	bridge *futureBridge
	np     *nodeProbe
	once   sync.Once
	detach func()
}

var errClientClosed = errors.New("benchmark: traced client closed")

func (c *tracedClient) Submit(ctx context.Context, cmd ezbft.Command) (pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := &tracedFuture{client: c, done: make(chan struct{})}
	err := c.node.InjectAbort(ctx.Done(), func(pctx proc.Context) {
		c.np.cur = c.np.tr.begin(kindClientSubmit, c.np.id, -1, noReq)
		ts := c.inner.Submit(pctx, cmd)
		c.bridge.register(ts, f)
		c.np.tr.end(c.np.cur)
		c.np.cur = -1
	})
	switch {
	case err == nil:
		return f, nil
	case errors.Is(err, transport.ErrAborted):
		return nil, ctx.Err()
	default:
		return nil, errClientClosed
	}
}

func (c *tracedClient) Stats() ezbft.ClientStats {
	got := make(chan ezbft.ClientStats, 1)
	if err := c.node.Inject(func(proc.Context) { got <- c.inner.ClientStats() }); err == nil {
		select {
		case s := <-got:
			return s
		case <-c.node.Done():
		}
	}
	c.node.Join()
	return c.inner.ClientStats()
}

func (c *tracedClient) Close() error {
	c.once.Do(func() {
		c.node.Stop()
		c.detach()
	})
	return nil
}

type tracedFuture struct {
	client *tracedClient
	done   chan struct{}
	comp   workload.Completion
}

func (f *tracedFuture) Wait(ctx context.Context) (ezbft.Result, error) {
	select {
	case <-f.done:
		return f.comp.Result, nil
	case <-ctx.Done():
		return ezbft.Result{}, ctx.Err()
	case <-f.client.node.Done():
		select {
		case <-f.done:
			return f.comp.Result, nil
		default:
		}
		return ezbft.Result{}, errClientClosed
	}
}

func (f *tracedFuture) FastPath() bool         { return f.comp.FastPath }
func (f *tracedFuture) Latency() time.Duration { return f.comp.Latency }

// futureBridge is the workload.Driver that resolves each completion's
// future by the command's per-client timestamp.
type futureBridge struct {
	mu      sync.Mutex
	waiters map[uint64]*tracedFuture
}

var _ workload.Driver = (*futureBridge)(nil)

func (b *futureBridge) register(ts uint64, f *tracedFuture) {
	b.mu.Lock()
	b.waiters[ts] = f
	b.mu.Unlock()
}

func (b *futureBridge) Start(proc.Context, workload.Submitter) {}

func (b *futureBridge) Completed(_ proc.Context, _ workload.Submitter, comp workload.Completion) {
	b.mu.Lock()
	f := b.waiters[comp.Cmd.Timestamp]
	delete(b.waiters, comp.Cmd.Timestamp)
	b.mu.Unlock()
	if f != nil {
		f.comp = comp
		close(f.done)
	}
}

func (b *futureBridge) OnTimer(proc.Context, workload.Submitter, proc.TimerID) {}
