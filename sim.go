package ezbft

import (
	"fmt"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/metrics"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// SimConfig describes a simulated deployment.
type SimConfig struct {
	// Protocol selects the consensus protocol (default EZBFT).
	Protocol Protocol
	// Topology is the WAN model (default DeploymentA).
	Topology *Topology
	// ReplicaRegions places replica i in ReplicaRegions[i] (default: one
	// replica per topology region).
	ReplicaRegions []Region
	// Primary is the primary/leader for the primary-based protocols.
	Primary ReplicaID
	// NewApp builds one application instance per replica — the replicated
	// state machine under test. Nil deploys the reference key-value store
	// (NewKVStore); the EZBFT protocol requires the application to
	// implement SpeculativeApplication.
	NewApp ApplicationFactory
	// ClientsPerRegion places this many closed-loop clients in every
	// region (default 1).
	ClientsPerRegion int
	// Contention is the fraction of requests hitting the shared hot key.
	Contention float64
	// MaxRequestsPerClient stops each client after this many requests
	// (0 = run until the simulation clock stops). With a cap, the cluster
	// can drain to quiescence and state digests become comparable.
	MaxRequestsPerClient uint64
	// Seed makes the simulation deterministic (default 1).
	Seed int64
	// Mute marks replicas as fail-silent, for fault-injection studies.
	Mute map[ReplicaID]bool
	// BatchSize enables leader-side request batching for every protocol:
	// the ordering replica (each command-leader in ezBFT, the primary in
	// the baselines) orders up to this many requests per instance (0 or 1
	// = unbatched, byte-for-byte each protocol's paper message flow).
	BatchSize int
	// BatchDelay bounds how long an incomplete batch waits before flushing
	// (0 = the protocol default).
	BatchDelay time.Duration
	// CheckpointInterval enables the log lifecycle subsystem: replicas
	// checkpoint every this many executions and truncate their logs below
	// 2f+1-stable checkpoints. 0 keeps each protocol's default (PBFT
	// checkpoints at its paper interval; the others run without
	// checkpointing — the paper-reproduction message flow, byte-identical).
	CheckpointInterval uint64
	// LogRetention keeps this many extra entries below the stable mark
	// when truncating.
	LogRetention uint64
	// Durability selects the replica durability backend: off (the
	// default — nothing persisted, byte-identical to the paper figures),
	// memory, or disk. A non-empty StoreDir with no explicit backend
	// implies disk.
	Durability Durability
	// StoreDir is the root directory for disk-backed replica stores;
	// replica i writes under StoreDir/r<i>.
	StoreDir string
	// Fsync makes the disk backend fsync at every group-commit point; with
	// no disk backend it is an error.
	Fsync bool
}

// SimCluster is a deterministic simulated deployment. It is driven by
// closed-loop clients generating the paper's key-value workload; Run
// advances virtual time and Summaries reports per-region client latency.
type SimCluster struct {
	cluster *bench.Cluster
	warmup  time.Duration
}

// RegionSummary is a per-region latency summary.
type RegionSummary struct {
	Region       Region
	Count        int
	Mean         time.Duration
	P50, P99     time.Duration
	FastFraction float64
}

// NewSimCluster builds a simulated deployment.
func NewSimCluster(cfg SimConfig) (*SimCluster, error) {
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

	var collector *metrics.Collector
	spec := bench.Spec{
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
		Durability:         backend(cfg.Durability, cfg.StoreDir),
		StoreDir:           cfg.StoreDir,
		Fsync:              cfg.Fsync,
	}
	if cfg.NewApp != nil {
		spec.NewApp = func() types.Application { return cfg.NewApp() }
	}
	for _, region := range cfg.ReplicaRegions {
		spec.Clients = append(spec.Clients, bench.ClientGroup{
			Region: region,
			Count:  cfg.ClientsPerRegion,
			NewDriver: func(int) workload.Driver {
				return &workload.ClosedLoop{
					Gen:         &workload.KVGenerator{Contention: cfg.Contention},
					Recorder:    deferredRecorder{&collector},
					MaxRequests: cfg.MaxRequestsPerClient,
				}
			},
		})
	}
	cluster, err := bench.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("ezbft: building sim cluster: %w", err)
	}
	collector = cluster.Collector
	return &SimCluster{cluster: cluster}, nil
}

// deferredRecorder resolves the collector at record time (it does not
// exist yet when drivers are constructed).
type deferredRecorder struct{ c **metrics.Collector }

func (d deferredRecorder) Record(client types.ClientID, comp workload.Completion) {
	if *d.c != nil {
		(*d.c).Record(client, comp)
	}
}

// SetWarmup discards samples completed before d (call before Run).
func (s *SimCluster) SetWarmup(d time.Duration) {
	s.warmup = d
	s.cluster.Collector.Warmup = d
}

// Run advances virtual time to `until`.
func (s *SimCluster) Run(until time.Duration) { s.cluster.Run(until) }

// Close releases the replicas' durable stores (a no-op when durability
// is off).
func (s *SimCluster) Close() { s.cluster.CloseStores() }

// Summaries returns per-region latency summaries.
func (s *SimCluster) Summaries() []RegionSummary {
	out := make([]RegionSummary, 0, 4)
	for _, label := range s.cluster.Collector.Groups() {
		sum := s.cluster.Collector.Summarize(label)
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

// Completed returns the total number of completed requests.
func (s *SimCluster) Completed() int { return s.cluster.Collector.Total() }

// App returns replica i's application instance, for inspection.
func (s *SimCluster) App(i int) Application { return s.cluster.Apps[i] }

// StateDigests returns each replica's application state digest; equal
// digests demonstrate convergence.
func (s *SimCluster) StateDigests() []string {
	out := make([]string, 0, len(s.cluster.Apps))
	for _, app := range s.cluster.Apps {
		out = append(out, app.Digest().String())
	}
	return out
}
