// Package ezbft is a from-scratch Go implementation of ezBFT (Arun,
// Peluso, Ravindran — "ezBFT: Decentralizing Byzantine Fault-Tolerant State
// Machine Replication", ICDCS 2019): a leaderless BFT state machine
// replication protocol in which every replica orders the commands its own
// clients submit, committing in three communication steps in the common
// case.
//
// # Pluggable applications
//
// The system replicates an arbitrary application — any deterministic state
// machine implementing the small Application contract (Apply one command,
// Digest the state; optionally the Checkpointer hook, and the
// SpeculativeApplication extension for ezBFT's speculative execution).
// Every substrate accepts an ApplicationFactory and builds one application
// instance per replica, so users replicate their own state machines:
//
//	cluster, _ := ezbft.NewLiveCluster(ezbft.LiveConfig{
//		NewApp: func() ezbft.Application { return newMyStateMachine() },
//	})
//
// The demo key-value store (NewKVStore, with the Put/Get/Incr command
// constructors) is just the reference implementation — the application the
// paper's evaluation uses — and is deployed when no factory is given. See
// examples/customapp for a complete custom application.
//
// # Substrates
//
// The package exposes three ways to run the system:
//
//   - Simulation: NewSimCluster builds a deterministic discrete-event
//     deployment on a modeled WAN (the substrate used to reproduce the
//     paper's evaluation; see internal/bench.DefaultCosts for the
//     calibration and `ezbft-bench -e table1` for the fitted Table I).
//   - Live in-process: NewLiveCluster runs real replicas and clients on
//     goroutines connected by an in-memory mesh.
//   - Live over TCP: StartTCPReplica and NewTCPClient run the same pieces
//     over length-prefixed TCP frames; cmd/ezbft-server and
//     cmd/ezbft-client are thin wrappers around them.
//
// # Clients
//
// Live substrates (mesh and TCP) hand out the same Client type, with two
// submission styles:
//
//   - Execute(ctx, cmd) submits one command and blocks until the protocol
//     commits it. It honors context cancellation and deadlines, and fails
//     with ErrClusterClosed / ErrClientClosed when the deployment goes
//     away mid-command — the paper's closed-loop client, made safe for
//     production use.
//   - Submit(ctx, cmd) enqueues a command and returns a *Future, keeping
//     any number of commands in flight per client. Completions correlate
//     to futures through the per-client timestamps the protocols already
//     stamp on every command, so pipelining changes no wire format.
//     Pipelined clients are how the protocols reach peak throughput: with
//     the ordering replica CPU-bound on admission, eight in-flight
//     commands from one client beat the blocking client several times
//     over on the live substrate.
//
// Individual clients detach cleanly with Close without tearing down their
// cluster; the per-cluster identity space is bounded by
// LiveConfig.MaxClients (NewClient fails with ErrTooManyClients past it).
//
// # The replication engine
//
// All substrates construct nodes exclusively through the protocol-agnostic
// engine contract in internal/engine: each protocol package registers an
// engine (replica factory, client factory, inbound signature pre-verifier),
// and anything that accepts a Protocol — SimConfig, LiveConfig, the bench
// harness, the -p flag of cmd/ezbft-server and cmd/ezbft-client — resolves
// it through that registry. The paper's evaluation baselines (PBFT,
// Zyzzyva, FaB) are engines like ezBFT itself, so every protocol runs on
// every substrate and against any application; unknown protocol names are
// rejected with the registered ones listed.
//
// # Batching
//
// By default every ordering replica opens one protocol instance — one
// ECDSA/HMAC signature, one wire frame — per client command. Leader-side
// request batching (SimConfig.BatchSize / LiveConfig.BatchSize, the
// -batch flag of cmd/ezbft-server, or BatchSize and BatchDelay on the
// internal replica configs) lets the ordering replica accumulate up to
// BatchSize verified requests for at most BatchDelay and order them in a
// single instance. For ezBFT that replica is each command-leader: the
// SPECORDER carries the whole batch under one leader signature,
// participants verify and spec-execute the batch as a unit (answering each
// client with its own SPECREPLY, the full SPECORDER evidence embedded once
// per replica per instance and referenced by digest in the rest), the
// batch commits and finally executes atomically in batch order, and owner
// changes recover batches whole. For the single-primary baselines it is
// the primary: one PRE-PREPARE / ORDERREQ / PROPOSE frame and one primary
// signature per batch, per-command replies, and view changes that carry
// batches whole — charged through the same split VerifyClient/AdmitInstance
// cost model, so batched cross-protocol comparisons are apples-to-apples
// (the `batch` experiment of cmd/ezbft-bench sweeps all four). Batch size
// 1 (the default) is byte-for-byte each protocol's unbatched message flow.
// With ordering replicas CPU-bound on request admission, batch size 16
// roughly triples saturated throughput for every protocol (see
// BenchmarkSimCommitThroughput); duplicate requests landing in different
// batches — retries racing a pending batch, or re-proposals after an owner
// change — still execute exactly once. Batching composes with client-side
// pipelining: many in-flight commands are what keeps batches full.
//
// # Log lifecycle: checkpointing, garbage collection, state transfer
//
// By default every replica's command log grows with the workload — fine
// for reproducing the paper's figures, fatal for long-running deployments.
// Setting CheckpointInterval (on LiveConfig, SimConfig, TCPReplicaConfig,
// or the -checkpoint flag of ezbft-server) turns on the log lifecycle
// subsystem: replicas periodically exchange signed CHECKPOINT votes over
// their executed log prefix, and once 2f+1 replicas vouch for the same
// prefix digest (a stable checkpoint) they truncate everything at or below
// it — log entries, dependency-index references, and out-of-window
// per-request bookkeeping — keeping memory bounded under sustained load
// (LogRetention keeps extra entries below the mark). It is safe to free a
// stable prefix because every functioning quorum intersects a correct
// replica whose state already reflects it. A replica that falls behind the
// low-water mark (a partitioned or freshly wedged node whose gaps peers
// have truncated) rejoins by state transfer: it fetches the checkpoint
// proof, an application snapshot (applications opt in by implementing
// Snapshotter; the reference key-value store does), and the retained log
// suffix from a vouching replica. Truncation and catch-up statistics are
// exposed through each protocol's ReplicaStats. With the interval at 0,
// PBFT keeps its paper-default checkpointing and the other protocols run
// exactly their original message flow.
//
// # Durable replica state: WAL, snapshots, crash recovery
//
// By default replica state lives in memory: a restarted replica is a new
// replica, and rejoining costs a full state transfer. The durability
// subsystem (internal/store, plumbed through every substrate config as
// Durability/StoreDir/Fsync and the -store-dir/-fsync flags of
// ezbft-server) gives every protocol's replicas a pluggable durable store:
// ordering-critical state — accepted SPECORDERs and ordering frames, commit
// decisions, checkpoint votes, views, per-client executed timestamps — is
// write-ahead-logged before the replica acts on it, synced before the
// first message that depends on it leaves (once per handler invocation at
// most), and pruned whenever a stable checkpoint
// persists the application snapshot (so the durable footprint stays
// bounded alongside the in-memory log). A replica restarted over its
// store directory recovers locally — snapshot restore, WAL replay,
// re-execution of the committed prefix — and then catch-up transfers
// only the tail of instances it missed while down, as an incremental
// log-suffix merge rather than a wholesale snapshot install. The memory
// backend exists for harnesses that tear replicas down in-process; off
// (the default) keeps every paper-reproduction figure byte-identical.
// PBFT, Zyzzyva and FaB share one write-ahead log, their engine's.
// Recovery statistics (WALRecords, Recoveries, TailsInstalled) are exposed
// through ReplicaStats; the repository benchmark's tcp_wal workload measures what
// the disk backend costs an ezBFT cluster.
package ezbft

import (
	"ezbft/internal/bench"
	"ezbft/internal/kvstore"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/wan"
)

// Re-exported fundamental types.
type (
	// Command is an operation submitted to the replicated application.
	Command = types.Command
	// Result is a command's execution outcome.
	Result = types.Result
	// Digest is a SHA-256 state or message digest.
	Digest = types.Digest
	// ReplicaID identifies a replica (0..N-1).
	ReplicaID = types.ReplicaID
	// ClientID identifies a client.
	ClientID = types.ClientID
	// Region is a geographic region in a WAN topology.
	Region = wan.Region
	// Topology is a WAN latency model.
	Topology = wan.Topology
	// Protocol selects a consensus protocol.
	Protocol = bench.Protocol
	// Durability selects a replica durability backend (internal/store):
	// DurabilityOff, DurabilityMemory, or DurabilityDisk.
	Durability = store.Backend
)

// Durability backends. Off (the default) persists nothing — the
// paper-reproduction behaviour. Memory write-ahead-logs in process memory
// (torn-down replicas restart from a retained handle; the scenario
// harness uses it). Disk persists the WAL and snapshots under a
// directory, so a crashed replica process recovers its pre-crash state
// on restart instead of state-transferring it from peers.
const (
	DurabilityOff    = store.BackendOff
	DurabilityMemory = store.BackendMemory
	DurabilityDisk   = store.BackendDisk
)

// backend is the durability a configuration asks for: a StoreDir with no
// explicit backend implies disk.
func backend(d Durability, storeDir string) Durability {
	if d == "" && storeDir != "" {
		return DurabilityDisk
	}
	return d
}

// Application is the replicated state machine the cluster serves: a
// deterministic Apply over committed commands plus a state Digest for
// checkpoints and replica cross-checks. Implement it (and, for the EZBFT
// protocol, SpeculativeApplication) to replicate your own application; the
// reference implementation is the key-value store behind NewKVStore.
type Application = types.Application

// SpeculativeApplication extends Application with speculative execution —
// apply on an overlay, roll the overlay back wholesale, re-apply in final
// order — which ezBFT's fast path requires of its application.
type SpeculativeApplication = types.SpeculativeApplication

// Checkpointer is the optional checkpointing hook an Application may
// implement: protocols that garbage-collect their logs against stable
// checkpoints report each stable checkpoint's mark and agreed digest, so
// the application can snapshot or truncate its own journal.
type Checkpointer = types.Checkpointer

// Snapshotter is the optional state-transfer hook an Application may
// implement: Snapshot serializes the final state and Restore replaces it,
// which is what lets a replica that fell behind the checkpoint low-water
// mark rejoin the cluster, and what a replica with a store (StoreDir)
// persists at each stable checkpoint. The reference key-value store
// implements it, and StateWriter too.
type Snapshotter = types.Snapshotter

// StateWriter is the optional capability a Snapshotter adds so that a
// replica with a store streams the state into its durable snapshot — the
// same bytes Snapshot returns, written to an io.Writer after their length —
// instead of building them in memory at every stable checkpoint. Without
// it the Snapshot bytes are written.
type StateWriter = types.StateWriter

// ApplicationFactory builds one application instance per replica; every
// substrate config accepts one (nil selects NewKVStore).
type ApplicationFactory func() Application

// NewKVStore returns a fresh instance of the reference application: the
// speculative key-value store the paper evaluates, serving the Put, Get,
// and Incr commands. It implements SpeculativeApplication and so runs
// under every protocol.
func NewKVStore() Application { return kvstore.New() }

// Protocols.
const (
	EZBFT   = bench.EZBFT
	PBFT    = bench.PBFT
	Zyzzyva = bench.Zyzzyva
	FaB     = bench.FaB
)

// Operations on the replicated application. The reference key-value store
// implements all three; custom applications are free to reinterpret the
// command vocabulary, but the interference relation the protocols order by
// is fixed per operation: a PUT conflicts with everything on the same key
// (other PUTs, GETs, INCRs), while two GETs or two commuting INCRs on a
// key do not interfere — see Command.Interferes.
const (
	OpGet  = types.OpGet
	OpPut  = types.OpPut
	OpIncr = types.OpIncr
)

// Regions of the paper's deployments.
const (
	Virginia  = wan.Virginia
	Ohio      = wan.Ohio
	Japan     = wan.Japan
	Mumbai    = wan.Mumbai
	Australia = wan.Australia
	Ireland   = wan.Ireland
	Frankfurt = wan.Frankfurt
)

// DeploymentA returns the paper's first deployment topology (Virginia,
// Japan, Mumbai, Australia), calibrated against the paper's Table I.
func DeploymentA() *Topology { return wan.DeploymentA() }

// DeploymentB returns the paper's second deployment topology (Ohio,
// Ireland, Frankfurt, Mumbai).
func DeploymentB() *Topology { return wan.DeploymentB() }

// Put builds a PUT command.
func Put(key string, value []byte) Command {
	return Command{Op: types.OpPut, Key: key, Value: value}
}

// Get builds a GET command.
func Get(key string) Command { return Command{Op: types.OpGet, Key: key} }

// Incr builds an INCR command (commutative increment; INCRs on the same
// key do not interfere with each other).
func Incr(key string) Command { return Command{Op: types.OpIncr, Key: key} }

// Latency experiment helpers re-exported for downstream evaluation use.
type (
	// ExperimentParams scales the paper-reproduction experiments.
	ExperimentParams = bench.Params
)
