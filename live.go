package ezbft

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/transport"
	"ezbft/internal/types"
)

// ErrClusterClosed reports use of a closed live cluster; commands in
// flight when the cluster closes also fail with it.
var ErrClusterClosed = errors.New("ezbft: cluster closed")

// ErrTooManyClients reports a NewClient call past the cluster's
// provisioned client identity space (LiveConfig.MaxClients).
var ErrTooManyClients = errors.New("ezbft: client identity space exhausted")

// DefaultMaxClients is the client identity space provisioned when
// LiveConfig.MaxClients is zero.
const DefaultMaxClients = 1024

// LiveConfig describes an in-process real-time deployment of any
// registered protocol.
type LiveConfig struct {
	// Protocol selects the consensus protocol (default EZBFT). Unknown
	// protocols are rejected with an error naming the registered ones.
	Protocol Protocol
	// N is the cluster size (3f+1; default 4).
	N int
	// Primary is the initial primary/leader for the primary-based
	// protocols; ezBFT ignores it.
	Primary ReplicaID
	// NewApp builds one application instance per replica — the replicated
	// state machine the cluster serves. Nil deploys the reference
	// key-value store (NewKVStore). ezBFT replicas speculate, so the
	// application must implement SpeculativeApplication to run under the
	// EZBFT protocol; the other three protocols need only Application.
	NewApp ApplicationFactory
	// MaxClients bounds the client identity space provisioned at startup
	// (default DefaultMaxClients). NewClient calls beyond it fail with
	// ErrTooManyClients.
	MaxClients int
	// Delay is an artificial one-way delivery delay (0 = none), useful to
	// observe WAN-like behaviour in a single process. Every link between
	// two nodes stays FIFO under it: one sender's messages to one receiver
	// arrive in the order they were sent.
	Delay time.Duration
	// AuthScheme selects message authentication (default HMAC).
	AuthScheme auth.Scheme
	// BatchSize enables leader-side request batching: the ordering replica
	// (each command-leader in ezBFT, the primary in the baselines) orders
	// up to this many client requests per instance (0 or 1 = unbatched).
	BatchSize int
	// BatchDelay bounds how long an incomplete batch waits before flushing
	// (0 = the protocol default).
	BatchDelay time.Duration
	// CheckpointInterval enables the log lifecycle subsystem: replicas
	// checkpoint every this many executions, truncate their logs below
	// 2f+1-stable checkpoints, and catch lagging peers up by state
	// transfer. 0 keeps each protocol's default (PBFT checkpoints at its
	// paper interval; the others run without checkpointing).
	CheckpointInterval uint64
	// LogRetention keeps this many extra entries below the stable mark
	// when truncating.
	LogRetention uint64
	// VerifyWorkers sizes each node's inbound signature-verification pool
	// (0 = GOMAXPROCS). Every node — replica and client — pre-verifies
	// inbound signatures on pool workers before its process loop sees the
	// message.
	VerifyWorkers int
	// Durability selects the replica durability backend: off (the
	// default — nothing persisted), memory, or disk. A non-empty
	// StoreDir with no explicit backend implies disk. Zyzzyva and FaB keep
	// no write-ahead log and refuse any backend but off.
	Durability Durability
	// StoreDir is the root directory for disk-backed replica stores;
	// replica i writes under StoreDir/r<i>.
	StoreDir string
	// Fsync makes the disk backend fsync at every group-commit point; with
	// no disk backend it is an error.
	Fsync bool
}

// LiveCluster is a real-time in-process deployment: N replica goroutines
// connected by an in-memory mesh, plus context-aware pipelined clients.
// Every protocol registered with internal/engine runs on this substrate,
// against any Application the config's factory builds.
type LiveCluster struct {
	mesh          *transport.Mesh
	eng           engine.Engine
	provider      *auth.Provider
	n             int
	primary       ReplicaID
	maxClients    int
	verifyWorkers int

	mu           sync.Mutex
	nodes        []*transport.LiveNode
	replicaProcs []proc.Process
	pools        []*transport.VerifyPool
	clients      []*Client
	nextCID      types.ClientID
	apps         []Application
	stores       []store.Store
	closed       bool
}

// NewLiveCluster builds and starts the replicas.
func NewLiveCluster(cfg LiveConfig) (*LiveCluster, error) {
	if cfg.Protocol == "" {
		cfg.Protocol = EZBFT
	}
	eng, err := engine.Lookup(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("ezbft: %w", err)
	}
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("ezbft: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.AuthScheme == 0 {
		cfg.AuthScheme = auth.SchemeHMAC
	}
	if cfg.NewApp == nil {
		cfg.NewApp = NewKVStore
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	provider, err := newLiveProvider(cfg)
	if err != nil {
		return nil, err
	}

	lc := &LiveCluster{
		mesh:          transport.NewMesh(cfg.Delay),
		eng:           eng,
		provider:      provider,
		n:             cfg.N,
		primary:       cfg.Primary,
		maxClients:    cfg.MaxClients,
		verifyWorkers: cfg.VerifyWorkers,
	}
	durability := backend(cfg.Durability, cfg.StoreDir) // before StoreDir gains r<i>
	for i := 0; i < cfg.N; i++ {
		rid := types.ReplicaID(i)
		app := cfg.NewApp()
		a, err := provider.ForNode(types.ReplicaNode(rid))
		if err != nil {
			return nil, err
		}
		st, err := store.Open(durability, filepath.Join(cfg.StoreDir, fmt.Sprintf("r%d", i)), cfg.Fsync)
		if err != nil {
			lc.closeStores()
			return nil, err
		}
		lc.stores = append(lc.stores, st)
		rep, err := eng.NewReplica(engine.ReplicaOptions{
			Self: rid, N: cfg.N, App: app, Auth: a,
			Primary:            cfg.Primary,
			LatencyBound:       500 * time.Millisecond,
			BatchSize:          cfg.BatchSize,
			BatchDelay:         cfg.BatchDelay,
			CheckpointInterval: cfg.CheckpointInterval,
			LogRetention:       cfg.LogRetention,
			Store:              st,
		})
		if err != nil {
			lc.closeStores()
			return nil, err
		}
		node := transport.NewLiveNode(rep, lc.mesh, int64(i)+1)
		if pool := lc.attach(node, a); pool != nil {
			lc.pools = append(lc.pools, pool)
		}
		lc.nodes = append(lc.nodes, node)
		lc.replicaProcs = append(lc.replicaProcs, rep)
		lc.apps = append(lc.apps, app)
	}
	for _, node := range lc.nodes {
		node.Start()
	}
	return lc, nil
}

// newLiveProvider provisions a live deployment's authentication provider:
// identities for the replicas plus the configured client space, behind one
// shared verified-signature memo — every node shares the provider's key
// material already, so each broadcast frame costs one real verification
// cluster-wide.
func newLiveProvider(cfg LiveConfig) (*auth.Provider, error) {
	nodes := make([]types.NodeID, 0, cfg.N+cfg.MaxClients)
	for i := 0; i < cfg.N; i++ {
		nodes = append(nodes, types.ReplicaNode(types.ReplicaID(i)))
	}
	for i := 0; i < cfg.MaxClients; i++ {
		nodes = append(nodes, types.ClientNode(types.ClientID(i)))
	}
	provider, err := auth.NewProvider(cfg.AuthScheme, nodes)
	if err != nil {
		return nil, err
	}
	provider.UseCache(0)
	return provider, nil
}

// attach registers a node on the mesh, behind an inbound verification
// pool; the pool is the caller's to close after the node stops.
func (lc *LiveCluster) attach(node *transport.LiveNode, a auth.Authenticator) *transport.VerifyPool {
	pool := transport.NewVerifyPool(lc.verifyWorkers, lc.eng.InboundVerifier(a, lc.n),
		func(from types.NodeID, msg codec.Message) { node.Deliver(from, msg) })
	lc.mesh.AttachPool(node, pool)
	return pool
}

// Close stops every replica and client; clients blocked in Execute or
// Future.Wait return ErrClusterClosed.
func (lc *LiveCluster) Close() {
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return
	}
	lc.closed = true
	nodes := append([]*transport.LiveNode(nil), lc.nodes...)
	pools := append([]*transport.VerifyPool(nil), lc.pools...)
	clients := append([]*Client(nil), lc.clients...)
	lc.mu.Unlock()
	for _, c := range clients {
		c.shutdown(ErrClusterClosed)
	}
	for _, n := range nodes {
		n.Stop()
	}
	for _, p := range pools {
		p.Close()
	}
	lc.closeStores()
}

// closeStores releases the replicas' durable stores (nil entries are
// the durability-off default).
func (lc *LiveCluster) closeStores() {
	for _, st := range lc.stores {
		if st != nil {
			_ = st.Close()
		}
	}
	lc.stores = nil
}

// App returns replica i's application instance, for inspection.
func (lc *LiveCluster) App(i int) Application { return lc.apps[i] }

// Replica returns replica i's underlying protocol value (for example
// *core.Replica under the EZBFT protocol), for stats inspection in tests
// and experiments. The replica runs on its own goroutine; read its state
// only through methods documented as inspection-safe, or after Close.
func (lc *LiveCluster) Replica(i int) any { return engine.Unwrap(lc.replicaProcs[i]) }

// StateDigest returns replica i's application state digest.
func (lc *LiveCluster) StateDigest(i int) string { return lc.apps[i].Digest().String() }

// NewClient creates a client attached to the given replica (its
// "closest"; primary-based protocols submit to the configured primary
// regardless). The client runs on its own goroutine and supports blocking
// Execute as well as pipelined Submit; close it individually with
// Client.Close, or let Cluster.Close take it down.
func (lc *LiveCluster) NewClient(leader ReplicaID) (*LiveClient, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return nil, ErrClusterClosed
	}
	if int(lc.nextCID) >= lc.maxClients {
		return nil, fmt.Errorf("%w: %d clients provisioned (LiveConfig.MaxClients)",
			ErrTooManyClients, lc.maxClients)
	}
	cid := lc.nextCID
	lc.nextCID++
	a, err := lc.provider.ForNode(types.ClientNode(cid))
	if err != nil {
		return nil, err
	}
	bridge := newFutureBridge()
	inner, err := lc.eng.NewClient(engine.ClientOptions{
		ID: cid, N: lc.n, Nearest: leader, Primary: lc.primary,
		Auth: a, Driver: bridge,
		LatencyBound: 200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	node := transport.NewLiveNode(inner, lc.mesh, int64(cid)+1000)
	pool := lc.attach(node, a)
	client := newClient(node, inner, bridge, func() {
		lc.mesh.Detach(node)
		if pool != nil {
			pool.Close()
		}
	})
	lc.clients = append(lc.clients, client)
	return client, nil
}
