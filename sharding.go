package ezbft

import (
	"context"
	"fmt"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/bench"
	"ezbft/internal/metrics"
	"ezbft/internal/shard"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// Sharded deployments. A sharded deployment partitions the keyspace across
// N independent consensus groups — each running any registered protocol,
// unchanged — behind a consistent-hash router. Single-key commands route to
// their owning shard and cost exactly one unsharded consensus round;
// multi-key transactions spanning shards commit atomically through a
// deterministic two-phase lock-and-apply protocol (see internal/shard).

type (
	// TxnOp is one sub-operation of a cross-shard transaction.
	TxnOp = shard.Op
	// ShardRouter maps keys to shards by consistent hashing.
	ShardRouter = shard.Router
)

// ErrTxnAborted reports a cleanly aborted cross-shard transaction: no shard
// applied any of its writes. Returned (wrapped with the reason) by Txn.
var ErrTxnAborted = shard.ErrTxnAborted

// NewShardRouter builds the consistent-hash routing table for a deployment
// of `shards` consensus groups (values below 1 are treated as 1). Every
// participant — clients, benches, operators pre-placing keys — derives the
// same table from the shard count alone.
func NewShardRouter(shards int) *ShardRouter { return shard.NewRouter(shards) }

// ShardedApp wraps an application factory with the cross-shard transaction
// layer (per-shard lock tables, staged writes, idempotent phase handlers).
// Every replica of a sharded deployment must serve the wrapped application
// for multi-key transactions to execute; plain commands pass through to the
// inner application unchanged. Nil wraps the reference key-value store.
// NewShardedLiveCluster and NewShardedSimCluster wrap automatically; TCP
// deployments (ezbft-server -shards) wrap here.
func ShardedApp(inner ApplicationFactory) ApplicationFactory {
	if inner == nil {
		inner = NewKVStore
	}
	return func() Application { return shard.Wrap(inner()) }
}

// ShardedClient routes single-key commands to their owning shard and
// coordinates atomic multi-key transactions across shards, over one
// protocol client per shard.
type ShardedClient struct {
	inner *shard.Client
	conns []*Client
}

// newShardedClient wires per-shard protocol clients under the coordinator.
// IDPrefix must be unique among concurrent coordinators; the callers derive
// it from the client identity.
func newShardedClient(router *shard.Router, conns []*Client, idPrefix string) (*ShardedClient, error) {
	sconns := make([]shard.Conn, len(conns))
	for i, c := range conns {
		sconns[i] = c
	}
	inner, err := shard.NewClient(router, sconns, shard.Options{IDPrefix: idPrefix})
	if err != nil {
		return nil, err
	}
	return &ShardedClient{inner: inner, conns: conns}, nil
}

// Router returns the client's routing table.
func (c *ShardedClient) Router() *ShardRouter { return c.inner.Router() }

// Conn returns the protocol client serving shard s, for direct pipelined
// access (Submit/Future) to one group.
func (c *ShardedClient) Conn(s int) *Client { return c.conns[s] }

// Execute routes one single-key command to its owning shard and blocks
// until that shard's protocol commits it.
func (c *ShardedClient) Execute(ctx context.Context, cmd Command) (Result, error) {
	return c.inner.Execute(ctx, cmd)
}

// Txn atomically applies a multi-key transaction: every sub-operation's
// write lands in the final state of its owning shard, or none does. Returns
// nil on commit, ErrTxnAborted (wrapped with the reason) on a clean abort;
// any other error means the outcome could not be resolved within the
// context deadline plus a grace window.
func (c *ShardedClient) Txn(ctx context.Context, ops []TxnOp) error {
	return c.inner.Txn(ctx, ops)
}

// Close releases every shard connection.
func (c *ShardedClient) Close() error {
	var err error
	for _, conn := range c.conns {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ShardedLiveCluster is a sharded in-process deployment: Shards independent
// LiveClusters — one consensus group per shard, no message ever crossing
// groups — sharing one authentication keyring and one verified-signature
// cache. Build it with NewShardedLiveCluster.
type ShardedLiveCluster struct {
	router *shard.Router
	groups []*LiveCluster
}

// NewShardedLiveCluster builds cfg.Shards independent live consensus groups
// behind a consistent-hash router. Every group runs cfg's protocol over the
// transaction-wrapped application; all groups share one auth provider (one
// keyring, one verify cache) instead of provisioning one per shard.
func NewShardedLiveCluster(cfg LiveConfig) (*ShardedLiveCluster, error) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	// Resolve the defaults the shared provider depends on here, so every
	// group sees identical settings.
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.AuthScheme == 0 {
		cfg.AuthScheme = auth.SchemeHMAC
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	provider, err := newLiveProvider(cfg)
	if err != nil {
		return nil, err
	}
	inner := cfg.NewApp
	if inner == nil {
		inner = NewKVStore
	}
	lc := &ShardedLiveCluster{router: shard.NewRouter(shards)}
	for s := 0; s < shards; s++ {
		g := cfg
		g.Shards = 0
		g.provider = provider
		g.NewApp = func() Application { return shard.Wrap(inner()) }
		if g.StoreDir != "" {
			g.StoreDir = fmt.Sprintf("%s/s%d", cfg.StoreDir, s)
		}
		group, err := NewLiveCluster(g)
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("ezbft: shard %d: %w", s, err)
		}
		lc.groups = append(lc.groups, group)
	}
	return lc, nil
}

// Shards returns the number of consensus groups.
func (lc *ShardedLiveCluster) Shards() int { return len(lc.groups) }

// Router returns the deployment's routing table.
func (lc *ShardedLiveCluster) Router() *ShardRouter { return lc.router }

// Group returns shard s's consensus group, for inspection.
func (lc *ShardedLiveCluster) Group(s int) *LiveCluster { return lc.groups[s] }

// App returns shard s, replica i's application instance (the transaction
// wrapper; shard.App.Inner reaches the wrapped application).
func (lc *ShardedLiveCluster) App(s, i int) Application { return lc.groups[s].App(i) }

// StateDigest returns shard s, replica i's application state digest.
func (lc *ShardedLiveCluster) StateDigest(s, i int) string { return lc.groups[s].StateDigest(i) }

// NewClient creates a sharded client: one protocol client per shard, all
// attached to the given replica of their group, under one transaction
// coordinator. The per-shard clients share the cluster's provider — one
// keyring and verify cache across all shard connections.
func (lc *ShardedLiveCluster) NewClient(leader ReplicaID) (*ShardedClient, error) {
	conns := make([]*Client, 0, len(lc.groups))
	for _, g := range lc.groups {
		c, err := g.NewClient(leader)
		if err != nil {
			for _, done := range conns {
				_ = done.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	prefix := "txn"
	if len(conns) > 0 {
		prefix = fmt.Sprintf("txn-c%d", conns[0].ClientID())
	}
	return newShardedClient(lc.router, conns, prefix)
}

// Close stops every group.
func (lc *ShardedLiveCluster) Close() {
	for _, g := range lc.groups {
		g.Close()
	}
}

// NewShardedTCPClient connects a sharded client to a TCP deployment of
// len(shardReplicas) consensus groups: shardReplicas[s] maps replica ids to
// addresses for shard s's group (cfg.Replicas must be empty). The key
// material is parsed exactly once and every per-shard connection shares the
// derived authenticator (and its verified-signature memo, under ECDSA),
// instead of re-parsing and re-verifying per shard.
func NewShardedTCPClient(cfg TCPClientConfig, shardReplicas []map[ReplicaID]string) (*ShardedClient, error) {
	if len(cfg.Replicas) != 0 {
		return nil, fmt.Errorf("ezbft: sharded TCP client: set shardReplicas, not cfg.Replicas")
	}
	if len(shardReplicas) == 0 {
		return nil, fmt.Errorf("ezbft: sharded TCP client needs at least one shard's replica addresses")
	}
	ring, err := parseTCPKeyring(cfg.Secret, cfg.KeyPEM, cfg.KeyFile)
	if err != nil {
		return nil, err
	}
	a, err := ring.forNode(types.ClientNode(cfg.ID))
	if err != nil {
		return nil, err
	}
	conns := make([]*Client, 0, len(shardReplicas))
	for s, replicas := range shardReplicas {
		g := cfg
		g.Replicas = replicas
		c, err := newTCPClientAuthed(g, a)
		if err != nil {
			for _, done := range conns {
				_ = done.Close()
			}
			return nil, fmt.Errorf("ezbft: shard %d: %w", s, err)
		}
		conns = append(conns, c)
	}
	return newShardedClient(shard.NewRouter(len(shardReplicas)), conns,
		fmt.Sprintf("txn-c%d", cfg.ID))
}

// SimTxn is the handle of one cross-shard transaction submitted to a
// sharded simulation; it progresses as the simulation steps.
type SimTxn = bench.Txn

// ShardedSimCluster is a deterministic sharded simulation: cfg.Shards
// independent simulated consensus groups advanced in virtual-time lockstep,
// each loaded by its own closed-loop clients restricted to the shard's
// keyspace, plus a cross-shard transaction pump.
type ShardedSimCluster struct {
	cluster    *bench.ShardedCluster
	collectors []*metrics.Collector
	warmup     time.Duration
}

// NewShardedSimCluster builds a sharded simulated deployment from the same
// config as NewSimCluster (Shards > 1 selects the shard count; Mute applies
// to every group).
func NewShardedSimCluster(cfg SimConfig) (*ShardedSimCluster, error) {
	if cfg.Protocol == "" {
		cfg.Protocol = EZBFT
	}
	if cfg.Topology == nil {
		cfg.Topology = wan.DeploymentA()
	}
	if len(cfg.ReplicaRegions) == 0 {
		cfg.ReplicaRegions = cfg.Topology.Regions()
	}
	if cfg.ClientsPerRegion <= 0 {
		cfg.ClientsPerRegion = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	router := shard.NewRouter(shards)
	s := &ShardedSimCluster{collectors: make([]*metrics.Collector, shards)}
	ss := bench.ShardSpec{
		Base: bench.Spec{
			Protocol:           cfg.Protocol,
			Topology:           cfg.Topology,
			ReplicaRegions:     cfg.ReplicaRegions,
			Primary:            cfg.Primary,
			Seed:               cfg.Seed,
			Mute:               cfg.Mute,
			BatchSize:          cfg.BatchSize,
			BatchDelay:         cfg.BatchDelay,
			CheckpointInterval: cfg.CheckpointInterval,
			LogRetention:       cfg.LogRetention,
			Durability:         cfg.Durability,
			StoreDir:           cfg.StoreDir,
			Fsync:              cfg.Fsync,
		},
		Shards: shards,
	}
	if ss.Base.Durability == "" && ss.Base.StoreDir != "" {
		ss.Base.Durability = DurabilityDisk
	}
	if cfg.NewApp != nil {
		ss.Base.NewApp = func() types.Application { return cfg.NewApp() }
	}
	for _, region := range cfg.ReplicaRegions {
		ss.Clients = append(ss.Clients, bench.ShardClientGroup{
			Region: region,
			Count:  cfg.ClientsPerRegion,
			NewDriver: func(shardIdx, _ int) workload.Driver {
				return &workload.ClosedLoop{
					Gen: &bench.ShardKeyGen{
						Inner:  &workload.KVGenerator{Contention: cfg.Contention},
						Router: router,
						Shard:  shardIdx,
					},
					Recorder:    shardedSimRecorder{cluster: s, shard: shardIdx},
					MaxRequests: cfg.MaxRequestsPerClient,
				}
			},
		})
	}
	cluster, err := bench.BuildSharded(ss)
	if err != nil {
		return nil, fmt.Errorf("ezbft: building sharded sim cluster: %w", err)
	}
	s.cluster = cluster
	for i, g := range cluster.Groups {
		s.collectors[i] = g.Collector
	}
	return s, nil
}

// shardedSimRecorder resolves the shard's collector at record time (it does
// not exist yet when drivers are constructed).
type shardedSimRecorder struct {
	cluster *ShardedSimCluster
	shard   int
}

func (r shardedSimRecorder) Record(client types.ClientID, comp workload.Completion) {
	if c := r.cluster.collectors[r.shard]; c != nil {
		c.Record(client, comp)
	}
}

// SetWarmup discards samples completed before d (call before Run).
func (s *ShardedSimCluster) SetWarmup(d time.Duration) {
	s.warmup = d
	for _, c := range s.collectors {
		if c != nil {
			c.Warmup = d
		}
	}
}

// Shards returns the number of consensus groups.
func (s *ShardedSimCluster) Shards() int { return len(s.cluster.Groups) }

// Router returns the deployment's routing table.
func (s *ShardedSimCluster) Router() *ShardRouter { return s.cluster.Router }

// Now returns the lockstep virtual time.
func (s *ShardedSimCluster) Now() time.Duration { return s.cluster.Now() }

// Run advances lockstep virtual time to `until`.
func (s *ShardedSimCluster) Run(until time.Duration) { s.cluster.Run(until) }

// Step advances every group one lockstep quantum and pumps the active
// transactions.
func (s *ShardedSimCluster) Step() { s.cluster.Step() }

// RunUntil steps until pred holds or the virtual deadline passes, reporting
// whether pred held.
func (s *ShardedSimCluster) RunUntil(pred func() bool, deadline time.Duration) bool {
	return s.cluster.RunUntil(pred, deadline)
}

// SubmitTxn starts a cross-shard transaction; it progresses as the
// simulation steps. timeout bounds the lock phase on the virtual clock.
func (s *ShardedSimCluster) SubmitTxn(ops []TxnOp, timeout time.Duration) (*SimTxn, error) {
	return s.cluster.SubmitTxn(ops, timeout)
}

// SubmitTxnID starts a transaction under an explicit id; submitting one id
// twice injects a duplicate coordinator (the shards' idempotent phase
// handlers apply the staged writes exactly once).
func (s *ShardedSimCluster) SubmitTxnID(id string, ops []TxnOp, timeout time.Duration) (*SimTxn, error) {
	return s.cluster.SubmitTxnID(id, ops, timeout)
}

// ActiveTxns returns the number of transactions still in flight.
func (s *ShardedSimCluster) ActiveTxns() int { return s.cluster.ActiveTxns() }

// Completed returns the total completed single-key requests across shards.
func (s *ShardedSimCluster) Completed() int {
	total := 0
	for _, c := range s.collectors {
		total += c.Total()
	}
	return total
}

// ShardSummaries returns shard s's per-region latency summaries.
func (s *ShardedSimCluster) ShardSummaries(shardIdx int) []RegionSummary {
	col := s.collectors[shardIdx]
	out := make([]RegionSummary, 0, 4)
	for _, label := range col.Groups() {
		sum := col.Summarize(label)
		out = append(out, RegionSummary{
			Region:       Region(label),
			Count:        sum.Count,
			Mean:         sum.Mean,
			P50:          sum.P50,
			P99:          sum.P99,
			FastFraction: sum.FastFraction,
		})
	}
	return out
}

// App returns shard s, replica i's transaction-wrapped application.
func (s *ShardedSimCluster) App(shardIdx, i int) *shard.App {
	return s.cluster.Apps[shardIdx][i]
}

// StateDigests returns shard s's replica state digests; equal digests
// demonstrate the group converged.
func (s *ShardedSimCluster) StateDigests(shardIdx int) []string {
	out := make([]string, 0, len(s.cluster.Apps[shardIdx]))
	for _, app := range s.cluster.Apps[shardIdx] {
		out = append(out, app.Digest().String())
	}
	return out
}

// ReplicaRollup aggregates replica stats across shards with the per-shard
// breakdown.
func (s *ShardedSimCluster) ReplicaRollup() metrics.ShardRollup { return s.cluster.ReplicaRollup() }

// BatcherRollup aggregates batcher stats across shards like ReplicaRollup.
func (s *ShardedSimCluster) BatcherRollup() metrics.ShardRollup { return s.cluster.BatcherRollup() }

// Close releases the groups' durable stores (a no-op when durability is
// off).
func (s *ShardedSimCluster) Close() { s.cluster.CloseStores() }
