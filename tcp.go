package ezbft

import (
	"fmt"
	"os"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/transport"
	"ezbft/internal/types"
)

// TCPReplicaConfig describes one replica of a TCP deployment. All replicas
// of a cluster must share N, Protocol, batching and checkpointing settings,
// and one authentication setup: either the shared HMAC Secret or ECDSA PEM
// key material (KeyPEM/KeyFile).
//
// # Key distribution (ECDSA over TCP)
//
// HMAC needs only the one shared Secret, but gives every key holder the
// power to impersonate every node. For ECDSA, a deployment operator
// generates one identity per node and hands each process a PEM bundle
// containing its own private key plus every node's public key:
//
//	bundles, _ := ezbft.GenerateTCPKeys(4, 16)   // 4 replicas, 16 clients
//	// write bundles["R0"] to replica 0's key file, bundles["c3"] to
//	// client 3's, ... — each bundle can sign only as its own node.
//
// Replicas and clients then load their bundle through KeyFile (or pass the
// bytes in KeyPEM); the Secret is ignored when key material is present.
// Bundles are produced by a single trusted keygen step; rotating keys means
// regenerating and redistributing bundles (no online rekeying).
type TCPReplicaConfig struct {
	// Protocol selects the consensus protocol (default EZBFT).
	Protocol Protocol
	// ID is this replica's identifier in [0, N).
	ID ReplicaID
	// N is the cluster size (3f+1; default 4).
	N int
	// Primary is the initial primary/leader for primary-based protocols.
	Primary ReplicaID
	// Listen is the TCP listen address (e.g. ":7000", or "127.0.0.1:0"
	// for an ephemeral port — read it back with Addr).
	Listen string
	// Peers maps replica IDs to host:port addresses. Addresses may also be
	// registered later with SetPeer (ephemeral-port clusters exchange them
	// after startup).
	Peers map[ReplicaID]string
	// Secret is the cluster's shared HMAC key material (required unless
	// ECDSA key material is supplied via KeyPEM or KeyFile).
	Secret []byte
	// KeyPEM holds this replica's ECDSA key bundle (its private key plus
	// every node's public key; see GenerateTCPKeys). Non-empty KeyPEM
	// switches the deployment to ECDSA message authentication.
	KeyPEM []byte
	// KeyFile names a file holding the KeyPEM bundle (used when KeyPEM is
	// empty).
	KeyFile string
	// NewApp builds the replica's application (nil = the reference
	// key-value store). The EZBFT protocol requires the application to
	// implement SpeculativeApplication.
	NewApp ApplicationFactory
	// CheckpointInterval enables the log lifecycle subsystem: replicas
	// checkpoint every this many executions, truncate their logs below
	// 2f+1-stable checkpoints, and catch lagging peers up by state
	// transfer. 0 keeps each protocol's default (PBFT checkpoints at its
	// paper interval; the others run without checkpointing).
	CheckpointInterval uint64
	// LogRetention keeps this many extra entries below the stable mark.
	LogRetention uint64
	// BatchSize enables leader-side request batching (0 or 1 = unbatched).
	BatchSize int
	// BatchDelay bounds how long an incomplete batch waits before
	// flushing (0 = the protocol default).
	BatchDelay time.Duration
	// VerifyWorkers sizes the inbound signature-verification worker pool
	// (0 = GOMAXPROCS).
	VerifyWorkers int
	// Durability selects the replica durability backend: off (the
	// default — nothing persisted), memory, or disk. A non-empty
	// StoreDir with no explicit backend implies disk. Zyzzyva and FaB keep
	// no write-ahead log and refuse any backend but off.
	Durability Durability
	// StoreDir is this replica's durable-store directory (one replica
	// per process, so the directory is used as-is — deployments give
	// every replica its own, the -store-dir flag of ezbft-server). A
	// replica restarted over the same directory recovers its pre-crash
	// ordering state and executed prefix from the WAL and snapshot, then
	// catches up only the tail it missed while down instead of
	// state-transferring wholesale.
	StoreDir string
	// Fsync makes the disk backend fsync at every group-commit point —
	// the crash-safe setting; without it a kernel or power failure can
	// lose the tail of the WAL (process crashes alone cannot). With no
	// disk backend it is an error.
	Fsync bool
}

// TCPReplica is one running replica of a TCP deployment.
type TCPReplica struct {
	eng   engine.Engine
	app   Application
	rep   proc.Process
	node  *transport.LiveNode
	peer  *transport.TCPPeer
	pool  *transport.VerifyPool
	store store.Store
}

// StartTCPReplica builds and starts one replica serving its application
// over TCP. The replica runs until Close.
func StartTCPReplica(cfg TCPReplicaConfig) (*TCPReplica, error) {
	a, err := tcpAuthenticator(types.ReplicaNode(cfg.ID), cfg.Secret, cfg.KeyPEM, cfg.KeyFile)
	if err != nil {
		return nil, err
	}
	return startTCPReplicaAuthed(cfg, a)
}

// startTCPReplicaAuthed starts a replica around an already-derived
// authenticator.
func startTCPReplicaAuthed(cfg TCPReplicaConfig, a auth.Authenticator) (*TCPReplica, error) {
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
	if cfg.NewApp == nil {
		cfg.NewApp = NewKVStore
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	st, err := store.Open(backend(cfg.Durability, cfg.StoreDir), cfg.StoreDir, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	app := cfg.NewApp()
	rep, err := eng.NewReplica(engine.ReplicaOptions{
		Self:               cfg.ID,
		N:                  cfg.N,
		App:                app,
		Auth:               a,
		Primary:            cfg.Primary,
		BatchSize:          cfg.BatchSize,
		BatchDelay:         cfg.BatchDelay,
		CheckpointInterval: cfg.CheckpointInterval,
		LogRetention:       cfg.LogRetention,
		Store:              st,
	})
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}

	addrs := make(map[types.NodeID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		addrs[types.ReplicaNode(id)] = addr
	}
	node := transport.NewLiveNode(rep, nil, int64(cfg.ID)+1)
	// Every signed inbound message — ordering frames, requests, commit
	// certificates, owner-change traffic — has its signatures verified on a
	// worker pool in parallel before entering the single-threaded process
	// loop.
	pool := transport.NewVerifyPool(cfg.VerifyWorkers, eng.InboundVerifier(a, cfg.N),
		func(from types.NodeID, msg codec.Message) { node.Deliver(from, msg) })
	peer, err := transport.NewTCPPeer(types.ReplicaNode(cfg.ID), cfg.Listen, addrs, pool.Submit)
	if err != nil {
		pool.Close()
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	node.SetSender(peer)
	node.Start()
	// Connect to the peers known at start. One that found this address dead
	// while the replica was down has stopped dialling it for a while (the
	// transport's back-off), and a connection from here is what tells it the
	// replica is back. Best effort: a peer that is down itself is dialed
	// again by the first send to it.
	for id := range addrs {
		if id != types.ReplicaNode(cfg.ID) {
			_ = peer.Connect(id)
		}
	}
	return &TCPReplica{eng: eng, app: app, rep: rep, node: node, peer: peer, pool: pool, store: st}, nil
}

// Addr returns the replica's listener address (useful with ":0" listeners).
func (r *TCPReplica) Addr() string { return r.peer.Addr() }

// Protocol returns the replica's consensus protocol.
func (r *TCPReplica) Protocol() Protocol { return r.eng.Protocol() }

// SetPeer registers (or updates) another replica's address; ephemeral-port
// clusters exchange addresses with it after every replica has started.
func (r *TCPReplica) SetPeer(id ReplicaID, addr string) {
	r.peer.SetAddr(types.ReplicaNode(id), addr)
}

// App returns the replica's application instance, for inspection.
func (r *TCPReplica) App() Application { return r.app }

// Replica returns the replica's underlying protocol value (for example
// *core.Replica under the EZBFT protocol), for stats inspection in tests
// and experiments. The replica runs on its own goroutine; read its state
// only through methods documented as inspection-safe, or after Close.
func (r *TCPReplica) Replica() any { return engine.Unwrap(r.rep) }

// StateDigest returns the replica's application state digest.
func (r *TCPReplica) StateDigest() string { return r.app.Digest().String() }

// Close stops the replica, its transport, and its durable store. The
// store directory survives; a replica restarted over it recovers.
func (r *TCPReplica) Close() error {
	r.node.Stop()
	err := r.peer.Close()
	r.pool.Close()
	if r.store != nil {
		if cerr := r.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// TCPClientConfig describes one client of a TCP deployment. A replica whose
// address refuses connections (it is down) is not dialled again for a pause
// that starts at 20 ms and doubles with each further refusal up to 5 s, as
// between replicas; what the client sends it meanwhile is skipped. A replica
// that comes back during the pause fetches the COMMITs and COMMITFASTs it
// missed from its peers.
type TCPClientConfig struct {
	// Protocol selects the consensus protocol (default EZBFT; must match
	// the replicas).
	Protocol Protocol
	// ID is the client's identifier; concurrent clients of one cluster
	// must use distinct IDs.
	ID ClientID
	// N is the cluster size (default 4).
	N int
	// Nearest is the replica the client submits to — its closest replica
	// under ezBFT, the primary under the primary-based protocols.
	Nearest ReplicaID
	// Replicas maps replica IDs to host:port addresses (required).
	Replicas map[ReplicaID]string
	// Secret is the cluster's shared HMAC key material (required unless
	// ECDSA key material is supplied via KeyPEM or KeyFile).
	Secret []byte
	// KeyPEM holds this client's ECDSA key bundle (see GenerateTCPKeys and
	// the key-distribution notes on TCPReplicaConfig); non-empty switches
	// the client to ECDSA message authentication.
	KeyPEM []byte
	// KeyFile names a file holding the KeyPEM bundle (used when KeyPEM is
	// empty).
	KeyFile string
	// Listen is the client's own listen address (default an ephemeral
	// loopback port).
	Listen string
	// LatencyBound tunes protocol timeouts; it should exceed the largest
	// round trip in the deployment (default 500ms). An ezBFT client waits
	// this long for the replies its fast path needs before settling for a
	// slow quorum; a replica that stops answering costs each client at most
	// two of these, not one per request (ClientStats.SlowTimeouts counts
	// them).
	LatencyBound time.Duration
	// OnConnectError observes pre-registration failures: NewTCPClient
	// dials every replica so replies can ride the client's own
	// connections, and an unreachable replica is tolerated (up to f may
	// be down) but worth surfacing. Nil ignores the failures.
	OnConnectError func(ReplicaID, error)
	// VerifyWorkers sizes the client's inbound signature-verification pool
	// (0 = GOMAXPROCS); processes hosting many clients should set it low.
	VerifyWorkers int
}

// tcpVerifyMemoCapacity sizes a TCP node's private verified-signature memo
// to its in-flight window: a signature is looked up again within the same
// request (a SPECORDER verified on arrival reappears inside the commit
// certificate; a replica's own SPECREPLY comes back in it), so a few
// thousand entries cover every pipelined request. auth.DefaultCacheCapacity
// is meant for a whole in-process cluster sharing one memo.
const tcpVerifyMemoCapacity = 1 << 12

// tcpVerifyMemo puts a node's ECDSA authenticator behind its private memo.
func tcpVerifyMemo(a auth.Authenticator, self types.NodeID) auth.Authenticator {
	return auth.Cached(a, self, auth.NewVerifyCache(tcpVerifyMemoCapacity))
}

// tcpAuthenticator builds a node's authenticator from a TCP config's key
// material: ECDSA when a PEM bundle is supplied (bytes or file), behind a
// node-private memo of verified signatures; the shared-secret HMAC keyring
// otherwise, with no memo (a memo probe costs what the MAC costs, see
// auth.Cached).
func tcpAuthenticator(self types.NodeID, secret, keyPEM []byte, keyFile string) (auth.Authenticator, error) {
	if len(keyPEM) == 0 && keyFile != "" {
		data, err := os.ReadFile(keyFile)
		if err != nil {
			return nil, fmt.Errorf("ezbft: reading key file: %w", err)
		}
		keyPEM = data
	}
	if len(keyPEM) > 0 {
		ring, err := auth.ParseECDSAKeyringPEM(keyPEM)
		if err != nil {
			return nil, fmt.Errorf("ezbft: %w", err)
		}
		a, err := ring.ForNode(self)
		if err != nil {
			return nil, fmt.Errorf("ezbft: %w", err)
		}
		return tcpVerifyMemo(a, self), nil
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("ezbft: TCP deployments require a shared secret or ECDSA key material")
	}
	return auth.NewHMACKeyring(secret).ForNode(self), nil
}

// GenerateTCPKeys creates fresh ECDSA P-256 identities for a TCP deployment
// of n replicas and maxClients clients, returning one PEM key bundle per
// node keyed by node name ("R0".."R<n-1>" for replicas, "c0" onward for
// clients). Each bundle holds that node's private key plus every node's
// public key; distribute each bundle to its node only (TCPReplicaConfig /
// TCPClientConfig KeyPEM or KeyFile).
func GenerateTCPKeys(n, maxClients int) (map[string][]byte, error) {
	nodes := make([]types.NodeID, 0, n+maxClients)
	for i := 0; i < n; i++ {
		nodes = append(nodes, types.ReplicaNode(ReplicaID(i)))
	}
	for i := 0; i < maxClients; i++ {
		nodes = append(nodes, types.ClientNode(ClientID(i)))
	}
	ring, err := auth.NewECDSAKeyring(nil, nodes)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(nodes))
	for _, node := range nodes {
		bundle, err := ring.ExportPEM(node)
		if err != nil {
			return nil, err
		}
		out[node.String()] = bundle
	}
	return out, nil
}

// NewTCPClient connects a pipelined, context-aware Client to a TCP
// deployment. It pre-registers with every reachable replica so replies
// ride the client's own connections (best-effort: up to f replicas may be
// down). Close releases the client's connections; replicas stay up.
func NewTCPClient(cfg TCPClientConfig) (*Client, error) {
	a, err := tcpAuthenticator(types.ClientNode(cfg.ID), cfg.Secret, cfg.KeyPEM, cfg.KeyFile)
	if err != nil {
		return nil, err
	}
	return newTCPClientAuthed(cfg, a)
}

// newTCPClientAuthed builds a TCP client around an already-derived
// authenticator.
func newTCPClientAuthed(cfg TCPClientConfig, a auth.Authenticator) (*Client, error) {
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
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("ezbft: TCP client needs replica addresses")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.LatencyBound <= 0 {
		cfg.LatencyBound = 500 * time.Millisecond
	}
	bridge := newFutureBridge()
	inner, err := eng.NewClient(engine.ClientOptions{
		ID: cfg.ID, N: cfg.N,
		Nearest: cfg.Nearest, Primary: cfg.Nearest,
		Auth:   a,
		Driver: bridge,

		LatencyBound: cfg.LatencyBound,
	})
	if err != nil {
		return nil, err
	}
	addrs := make(map[types.NodeID]string, len(cfg.Replicas))
	for id, addr := range cfg.Replicas {
		addrs[types.ReplicaNode(id)] = addr
	}
	node := transport.NewLiveNode(inner, nil, int64(cfg.ID)+1000)
	// Client-bound replies (SPECREPLY / REPLY / SPECRESPONSE and friends)
	// pre-verify on a worker pool too, keeping the client's process loop
	// crypto-free.
	pool := transport.NewVerifyPool(cfg.VerifyWorkers, eng.InboundVerifier(a, cfg.N),
		func(from types.NodeID, msg codec.Message) { node.Deliver(from, msg) })
	peer, err := transport.NewTCPPeer(types.ClientNode(cfg.ID), cfg.Listen, addrs, pool.Submit)
	if err != nil {
		pool.Close()
		return nil, err
	}
	// Pre-register with every replica so all of them can answer directly
	// (replies ride the client's own connections). Best-effort: up to f
	// replicas may be down and the protocols tolerate the lost replies, so
	// an unreachable replica must not fail client construction — but the
	// failure is reported through OnConnectError so misconfigured
	// addresses stay observable.
	for rid := range addrs {
		if err := peer.Connect(rid); err != nil && cfg.OnConnectError != nil {
			cfg.OnConnectError(rid.Replica(), err)
		}
	}
	node.SetSender(peer)
	return newClient(node, inner, bridge, func() {
		_ = peer.Close()
		pool.Close()
	}), nil
}
