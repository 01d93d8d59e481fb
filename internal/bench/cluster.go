// Package bench contains the experiment harness that regenerates every
// table and figure in the paper's evaluation (§V): a generic simulated
// cluster builder that deploys any registered protocol engine (ezBFT,
// PBFT, Zyzzyva, FaB — see internal/engine) on a WAN topology with
// per-region client fleets, and one experiment definition per paper
// artifact. cmd/ezbft-bench and the repository-level benchmarks both
// drive this package.
//
// Calibration (DefaultCosts below; `ezbft-bench -e table1` prints the
// fitted Table I, and TestTable1MatchesPaper holds it within 5% of the
// paper's): network delays come from
// internal/wan's latency matrices (fitted to the paper's own Table I);
// processing costs model the paper's m4.2xlarge replicas (8 vCPUs) with an
// ECDSA-dominated per-request authentication cost at the ordering node and
// cheap MAC operations elsewhere — the structure that makes a single
// primary the throughput bottleneck and reproduces Figures 6 and 7.
package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/core"
	"ezbft/internal/engine"
	"ezbft/internal/fab"
	"ezbft/internal/kvstore"
	"ezbft/internal/metrics"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
	"ezbft/internal/zyzzyva"
)

// Protocol selects a consensus protocol (an engine.Protocol; importing
// this package links all four of the paper's protocol engines in).
type Protocol = engine.Protocol

// The four protocols of the paper's evaluation.
const (
	EZBFT   = engine.EZBFT
	PBFT    = engine.PBFT
	Zyzzyva = engine.Zyzzyva
	FaB     = engine.FaB
)

// Protocols lists all protocols in the paper's presentation order.
var Protocols = []Protocol{PBFT, FaB, Zyzzyva, EZBFT}

// DefaultCosts models the paper's implementation. Three calibrated tiers:
// admitting one client request at its ordering replica costs ~10ms of CPU,
// split into the asymmetric ECDSA verification (VerifyClient, charged per
// request) and the 2019 gRPC/protobuf session and protocol-instance work
// (AdmitInstance, charged per instance opened). Unbatched protocols open
// one instance per request, so their per-request admission cost is the
// original 10ms sum — the term that makes a single primary the bottleneck
// and reproduces Figs 6 and 7 — while ezBFT with owner-side batching
// amortizes AdmitInstance across every request of a batch. Verifying a
// signed replica-to-replica protocol message costs ~600µs (what separates
// PBFT's and FaB's extra phases from Zyzzyva in Fig 7); MAC operations
// (certificate spot checks, embedded requests) cost microseconds. The WAN
// matrices in internal/wan are fitted jointly with these constants against
// the paper's Table I.
var DefaultCosts = proc.Costs{
	Sign:          50 * time.Microsecond,
	Verify:        600 * time.Microsecond,
	VerifyClient:  2 * time.Millisecond,
	AdmitInstance: 8 * time.Millisecond,
	Execute:       10 * time.Microsecond,
}

// DefaultReplicaCost models an m4.2xlarge replica: 8 vCPUs with per-message
// handling overhead (gRPC/protobuf-era serialization and syscalls).
var DefaultReplicaCost = sim.CostModel{
	Cores:      8,
	PerMessage: 100 * time.Microsecond,
	PerSend:    60 * time.Microsecond,
}

// DefaultClientCost models a client process.
var DefaultClientCost = sim.CostModel{
	Cores:      2,
	PerMessage: 50 * time.Microsecond,
	PerSend:    50 * time.Microsecond,
}

// ClientGroup places Count clients in Region, each driven by a Driver
// built by NewDriver (called once per client).
type ClientGroup struct {
	Region    wan.Region
	Count     int
	NewDriver func(i int) workload.Driver
}

// Spec describes one simulated deployment.
type Spec struct {
	Protocol Protocol
	// Topology provides regions and latencies; replica i is placed in
	// ReplicaRegions[i].
	Topology       *wan.Topology
	ReplicaRegions []wan.Region
	// Primary is the primary/leader replica for primary-based protocols;
	// ezBFT clients always use the replica co-located in their region.
	Primary types.ReplicaID
	Clients []ClientGroup
	// Costs / cost models; zero values use the calibrated defaults.
	Costs       proc.Costs
	ReplicaCost *sim.CostModel
	ClientCost  *sim.CostModel
	// LatencyBound tunes protocol timeouts; it should exceed the largest
	// round trip in the topology (default 600ms).
	LatencyBound time.Duration
	Seed         int64
	// Mute marks replicas as fail-silent (fault injection experiments).
	Mute map[types.ReplicaID]bool
	// CheckpointInterval enables the log lifecycle subsystem (checkpoints,
	// truncation, state transfer) at this distance; 0 keeps each
	// protocol's default (PBFT checkpoints at its paper interval, the
	// others run without checkpointing).
	CheckpointInterval uint64
	// LogRetention keeps this many extra entries below the stable
	// checkpoint when truncating.
	LogRetention uint64
	// DisableFastPath forces ezBFT clients onto the slow path (ablation of
	// speculative execution; see AblationSpeculation).
	DisableFastPath bool
	// BatchSize enables leader-side request batching for every protocol:
	// the ordering replica (each command-leader in ezBFT, the primary in
	// the baselines) orders up to this many requests per instance (0 or 1
	// = unbatched).
	BatchSize int
	// BatchDelay bounds how long an incomplete batch waits before
	// flushing (0 = the protocol default).
	BatchDelay time.Duration
	// Durability selects the replicas' durable-store backend ("", "off",
	// "memory", "disk" — see internal/store). Off (the default) keeps
	// replicas memoryless and every existing figure byte-identical.
	Durability store.Backend
	// StoreDir is the root directory for disk-backed stores; each replica
	// uses the subdirectory r<id>. Required when Durability is "disk".
	StoreDir string
	// Fsync makes the disk backend fsync at every group-commit point; with
	// no disk backend it is an error.
	Fsync bool
	// NewStore, when non-nil, overrides the store factory entirely
	// (Durability/StoreDir/Fsync are ignored): fault-injection harnesses
	// use it to wrap a backend and exercise WAL degradation. A nil return
	// leaves that replica memoryless.
	NewStore func(replica int) (store.Store, error)
	// NewApp builds one application instance per replica (nil = the
	// reference key-value store). ezBFT requires a
	// types.SpeculativeApplication.
	NewApp func() types.Application
	// NewBehavior, when non-nil, builds a Byzantine message-interception
	// hook per replica (nil return = honest). The authenticator is the
	// replica's own, so adversarial strategies can re-sign forged
	// messages (see internal/scenario).
	NewBehavior func(id types.ReplicaID, a auth.Authenticator) engine.Behavior
}

// Cluster is a built deployment ready to run.
type Cluster struct {
	Spec      Spec
	RT        *sim.Runtime
	Collector *metrics.Collector
	N         int

	// Replicas and Clients hold every node as built through the engine
	// contract, in id order.
	Replicas []proc.Process
	Clients  []engine.Client

	// Protocol-specific handles (nil for other protocols).
	EZReplicas  []*core.Replica
	PBReplicas  []*pbft.Replica
	ZYReplicas  []*zyzzyva.Replica
	FBReplicas  []*fab.Replica
	Apps        []types.Application
	ClientCount int

	// Stores holds each replica's durable store (nil entries when the spec
	// ran without durability); a restart hands the same store back to the
	// replica's next incarnation.
	Stores []store.Store

	// auth provider and per-replica construction inputs, retained so
	// RestartReplica can rebuild a replica's next incarnation exactly as
	// Build made the first.
	provider *auth.Provider
	eng      engine.Engine
}

// Build constructs the cluster through the protocol-agnostic engine
// contract: any registered protocol deploys on the simulated substrate.
func Build(spec Spec) (*Cluster, error) {
	n := len(spec.ReplicaRegions)
	if n == 0 {
		return nil, fmt.Errorf("bench: no replica regions")
	}
	eng, err := engine.Lookup(spec.Protocol)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if spec.Costs == (proc.Costs{}) {
		spec.Costs = DefaultCosts
	}
	if spec.ReplicaCost == nil {
		rc := DefaultReplicaCost
		spec.ReplicaCost = &rc
	}
	if spec.ClientCost == nil {
		cc := DefaultClientCost
		spec.ClientCost = &cc
	}
	if spec.LatencyBound <= 0 {
		spec.LatencyBound = 600 * time.Millisecond
	}
	if spec.NewApp == nil {
		spec.NewApp = func() types.Application { return kvstore.New() }
	}

	kernel := sim.NewKernel(spec.Seed)
	rt := sim.NewRuntime(kernel, spec.Topology)
	collector := metrics.NewCollector()
	cl := &Cluster{Spec: spec, RT: rt, Collector: collector, N: n}

	// Region → local replica (for ezBFT client placement).
	regionReplica := make(map[wan.Region]types.ReplicaID, n)
	for i, region := range spec.ReplicaRegions {
		regionReplica[region] = types.ReplicaID(i)
	}

	// Enumerate nodes for the auth provider.
	nodes := make([]types.NodeID, 0, n+64)
	for i := 0; i < n; i++ {
		nodes = append(nodes, types.ReplicaNode(types.ReplicaID(i)))
	}
	nClients := 0
	for _, g := range spec.Clients {
		nClients += g.Count
	}
	for i := 0; i < nClients; i++ {
		nodes = append(nodes, types.ClientNode(types.ClientID(i)))
	}
	cl.ClientCount = nClients
	provider, err := auth.NewProvider(auth.SchemeHMAC, nodes)
	if err != nil {
		return nil, err
	}
	cl.provider = provider
	cl.eng = eng

	// Replicas.
	for i := 0; i < n; i++ {
		rid := types.ReplicaID(i)
		if err := spec.Topology.Assign(types.ReplicaNode(rid), spec.ReplicaRegions[i]); err != nil {
			return nil, err
		}
		app := spec.NewApp()
		cl.Apps = append(cl.Apps, app)
		a, err := provider.ForNode(types.ReplicaNode(rid))
		if err != nil {
			return nil, err
		}
		var behavior engine.Behavior
		if spec.NewBehavior != nil {
			behavior = spec.NewBehavior(rid, a)
		}
		var st store.Store
		if spec.NewStore != nil {
			st, err = spec.NewStore(i)
		} else {
			st, err = store.Open(spec.Durability, filepath.Join(spec.StoreDir, fmt.Sprintf("r%d", i)), spec.Fsync)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: replica %d store: %w", i, err)
		}
		cl.Stores = append(cl.Stores, st)
		p, err := cl.buildReplica(rid, app, a, behavior, st)
		if err != nil {
			return nil, err
		}
		if err := rt.AddNode(p, *spec.ReplicaCost); err != nil {
			return nil, err
		}
	}

	// Clients.
	next := types.ClientID(0)
	for _, g := range spec.Clients {
		local, ok := regionReplica[g.Region]
		if !ok {
			// No replica in this region: nearest is the primary.
			local = spec.Primary
		}
		for i := 0; i < g.Count; i++ {
			cid := next
			next++
			if err := spec.Topology.Assign(types.ClientNode(cid), g.Region); err != nil {
				return nil, err
			}
			collector.Label(cid, string(g.Region))
			a, err := provider.ForNode(types.ClientNode(cid))
			if err != nil {
				return nil, err
			}
			c, err := eng.NewClient(engine.ClientOptions{
				ID: cid, N: n, Nearest: local, Primary: spec.Primary,
				Auth: a, Costs: spec.Costs,
				Driver:          g.NewDriver(i),
				LatencyBound:    spec.LatencyBound,
				DisableFastPath: spec.DisableFastPath,
			})
			if err != nil {
				return nil, err
			}
			cl.Clients = append(cl.Clients, c)
			if err := rt.AddNode(c, *spec.ClientCost); err != nil {
				return nil, err
			}
		}
	}
	return cl, nil
}

// buildReplica constructs one replica through the engine contract and
// records it — and its protocol-specific handle — at its slot, replacing
// a previous incarnation on restart.
func (c *Cluster) buildReplica(rid types.ReplicaID, app types.Application, a auth.Authenticator, behavior engine.Behavior, st store.Store) (proc.Process, error) {
	spec := &c.Spec
	p, err := c.eng.NewReplica(engine.ReplicaOptions{
		Self: rid, N: c.N, App: app, Auth: a, Costs: spec.Costs,
		Primary:            spec.Primary,
		LatencyBound:       spec.LatencyBound,
		CheckpointInterval: spec.CheckpointInterval,
		LogRetention:       spec.LogRetention,
		BatchSize:          spec.BatchSize,
		BatchDelay:         spec.BatchDelay,
		Store:              st,
		Mute:               spec.Mute[rid],
		Behavior:           behavior,
	})
	if err != nil {
		return nil, err
	}
	i := int(rid)
	if i < len(c.Replicas) {
		c.Replicas[i] = p
	} else {
		c.Replicas = append(c.Replicas, p)
	}
	switch rep := p.(type) {
	case *core.Replica:
		c.EZReplicas = placeAt(c.EZReplicas, i, rep)
	case *pbft.Replica:
		c.PBReplicas = placeAt(c.PBReplicas, i, rep)
	case *zyzzyva.Replica:
		c.ZYReplicas = placeAt(c.ZYReplicas, i, rep)
	case *fab.Replica:
		c.FBReplicas = placeAt(c.FBReplicas, i, rep)
	}
	return p, nil
}

// placeAt overwrites index i when it exists (a restart) and appends
// otherwise (initial build; replicas are built in id order, so i is always
// the next slot).
func placeAt[T any](s []T, i int, v T) []T {
	if i < len(s) {
		s[i] = v
		return s
	}
	return append(s, v)
}

// RestartReplica crash-restarts replica i: the running incarnation is
// killed, a fresh process is built over the SAME durable store with a
// FRESH application instance, and the simulator reboots it at the current
// virtual time. The new application starts empty — recovery must rebuild
// it from the store (plus tail catch-up), which is exactly what the
// restart scenarios assert. With no durability configured the replica
// comes back amnesiac, rejoining through state transfer alone.
func (c *Cluster) RestartReplica(i int) error {
	if i < 0 || i >= c.N {
		return fmt.Errorf("bench: restart of replica %d outside [0,%d)", i, c.N)
	}
	rid := types.ReplicaID(i)
	c.RT.Crash(types.ReplicaNode(rid))
	app := c.Spec.NewApp()
	c.Apps[i] = app
	a, err := c.provider.ForNode(types.ReplicaNode(rid))
	if err != nil {
		return err
	}
	var behavior engine.Behavior
	if c.Spec.NewBehavior != nil {
		behavior = c.Spec.NewBehavior(rid, a)
	}
	p, err := c.buildReplica(rid, app, a, behavior, c.Stores[i])
	if err != nil {
		return err
	}
	return c.RT.Restart(p, *c.Spec.ReplicaCost)
}

// CloseStores closes every durable store (disk-backed runs).
func (c *Cluster) CloseStores() {
	for _, st := range c.Stores {
		if st != nil {
			_ = st.Close()
		}
	}
}

// Run starts the cluster (if needed) and advances virtual time to `until`.
func (c *Cluster) Run(until time.Duration) {
	c.RT.Start()
	c.RT.Run(until)
}

// MeanLatencyByRegion returns mean client latency per region label.
func (c *Cluster) MeanLatencyByRegion() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, label := range c.Collector.Groups() {
		out[label] = c.Collector.Summarize(label).Mean
	}
	return out
}
