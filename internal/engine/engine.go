// Package engine defines the protocol-agnostic replication-engine
// contract every consensus protocol in this repository plugs into. An
// Engine knows how to build the two process kinds a deployment needs — a
// replica and a workload-driven client — from substrate-neutral options,
// plus an optional transport-side signature pre-verifier for its hot-path
// ordering frames. The three substrates (the discrete-event simulator in
// internal/bench, the live in-process mesh, and the TCP deployment) all
// construct nodes exclusively through this contract, so any registered
// protocol runs on any substrate.
//
// Protocol packages register their engine from an init function (the same
// link-time pattern internal/codec uses for wire messages); importing a
// protocol package is what makes its Protocol name resolvable through
// Lookup. The package also hosts the machinery the protocols share on top
// of the contract: the leader-side request Batcher and the BatchDigest
// binding a batch of commands under one ordering signature.
//
// The sequenced protocols (PBFT, Zyzzyva, FaB) share one log lifecycle,
// Lifecycle: checkpoint votes, truncation below stable checkpoints, and
// state transfer for a replica that fell behind one. Its trust rule is f+1
// agreement: a transfer installs only once f+1 distinct responders — so at
// least one correct replica — send the same anchor (sequence number,
// quorum-signed digest, aux value, snapshot bytes) under a valid 2f+1
// checkpoint proof, and only the executed-suffix prefix every one of them
// vouches for replays. A single Byzantine responder can neither corrupt
// what a replica installs nor wedge it: the solicited voters rotate until
// f+1 correct ones answer.
//
// Every replica, ezBFT's included, embeds one Shell: the timer table, the
// outbound gate and the write-ahead log's runtime (shell.go states the
// durability contract). Around the Lifecycle the sequenced protocols share
// one replica core, Sequencer. It embeds the Shell and owns the
// configuration defaults; request admission (client signature, reply-cache
// resend, the RequestWindow floor, forwarding to the primary under a
// suspicion timer, duplicate suppression, the Batcher); the flush that
// assigns a batch its sequence number; the in-loop check of an ordering
// frame; the per-request tables; the slot log with in-order execution, one
// reply per command, and truncation; and the view change (viewchange.go),
// one VIEW-CHANGE/NEW-VIEW pair whose new view every replica recomputes
// from 2f+1 signed VIEW-CHANGEs. A protocol embeds it and supplies a
// SeqHost — its signed ordering frame (Order) and its reply (Reply) — and a
// ViewHost — its certificate and how it accepts a slot again — and keeps
// its phases and quorum rules. The REQUEST, phase-vote, REPLY and
// proposal messages are shared shapes each protocol instantiates with its
// tags (seqmsgs.go). PBFT's and FaB's clients are one QuorumClient, which
// completes a request once f+1 replicas report the same result.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// Protocol names a consensus protocol.
type Protocol string

// The four protocols of the paper's evaluation.
const (
	EZBFT   Protocol = "ezbft"
	PBFT    Protocol = "pbft"
	Zyzzyva Protocol = "zyzzyva"
	FaB     Protocol = "fab"
)

// ReplicaOptions configures one replica, independent of protocol and
// substrate. Zero-valued fields select each protocol's defaults.
type ReplicaOptions struct {
	// Self is this replica's identifier in [0, N).
	Self types.ReplicaID
	// N is the cluster size (3f+1).
	N int
	// App is the replicated application. Protocols that speculate (ezBFT)
	// require a types.SpeculativeApplication and reject anything less.
	App types.Application
	// Auth signs and verifies this replica's messages.
	Auth auth.Authenticator
	// Costs holds the virtual processing costs charged in simulation.
	Costs proc.Costs
	// Primary selects the initial primary/leader for primary-based
	// protocols; leaderless protocols ignore it.
	Primary types.ReplicaID
	// LatencyBound tunes protocol timeouts; it should exceed the largest
	// round trip in the deployment. Zero keeps the protocol defaults.
	LatencyBound time.Duration
	// CheckpointInterval is the distance (in executed sequence numbers for
	// the baselines, executed slots per instance space for ezBFT) between
	// checkpoints. PBFT treats 0 as its protocol default (it always
	// checkpoints); for the other protocols 0 disables checkpointing and
	// log truncation entirely — the pre-checkpointing behaviour,
	// byte-identical on the wire.
	CheckpointInterval uint64
	// LogRetention keeps this many additional entries below the stable
	// low-water mark when truncating (0 = truncate everything below the
	// mark). A small retention window lets slightly-behind peers fetch
	// recent entries without a full state transfer.
	LogRetention uint64
	// BatchSize enables leader-side request batching: the ordering replica
	// (every command-leader in ezBFT, the primary in the baselines) orders
	// up to this many client requests per protocol instance. 0 or 1 is
	// unbatched — byte-for-byte each protocol's original message flow.
	BatchSize int
	// BatchDelay bounds how long an incomplete batch waits before flushing
	// (0 = the protocol default).
	BatchDelay time.Duration
	// Store, when non-nil, is the replica's durability layer (see
	// internal/store and Shell): ordering-critical protocol state is
	// write-ahead-logged through it before the replica acts on it, stable
	// checkpoints cut durable snapshots, and a replica rebuilt with the
	// same store recovers its state on Init instead of starting empty.
	// Only ezBFT and PBFT keep a write-ahead log; Zyzzyva and FaB refuse a
	// store (ErrNoWAL). Nil (the default) keeps replicas memoryless across
	// restarts — byte-identical to the pre-durability behaviour.
	Store store.Store
	// Mute makes the replica fail-silent (fault-injection runs).
	Mute bool
	// Behavior, when non-nil, makes the replica Byzantine: the hook
	// intercepts every message the replica sends and receives (see
	// Behavior). Honest replicas leave it nil — the hot path pays only a
	// nil check.
	Behavior Behavior
}

// ErrNoWAL refuses a store for a protocol that write-ahead-logs nothing:
// its replicas would run memoryless where the configuration asked for
// recovery.
var ErrNoWAL = errors.New("protocol keeps no write-ahead log: a durable store needs ezbft or pbft")

// ClientOptions configures one workload-driven client.
type ClientOptions struct {
	// ID is the client's identifier.
	ID types.ClientID
	// N is the cluster size.
	N int
	// Nearest is the co-located replica — the command-leader a leaderless
	// client submits to. Primary-based clients ignore it.
	Nearest types.ReplicaID
	// Primary is the replica the client believes is primary/leader;
	// leaderless protocols ignore it.
	Primary types.ReplicaID
	// Auth signs requests and verifies replica replies.
	Auth auth.Authenticator
	// Costs holds the virtual processing costs charged in simulation.
	Costs proc.Costs
	// Driver decides what to submit and receives completions.
	Driver workload.Driver
	// LatencyBound tunes client timeouts (slow-path and retransmission);
	// zero keeps the protocol defaults. A speculative client (ezBFT,
	// Zyzzyva) waits this long for the replies its fast path needs before
	// settling for a slow quorum; a replica that stops answering costs each
	// ezBFT client at most two of these, not one per request (ReplyWatch),
	// and each Zyzzyva client one per request.
	LatencyBound time.Duration
	// DisableFastPath forces clients of speculative protocols onto their
	// slow path (ablation studies only).
	DisableFastPath bool
}

// ClientStats is the protocol-neutral snapshot of a client's counters.
// Protocols without a fast/slow path split leave the inapplicable fields
// zero (PBFT and FaB count every completion as a slow decision).
type ClientStats struct {
	Submitted     uint64
	Completed     uint64
	FastDecisions uint64
	SlowDecisions uint64
	Retries       uint64
	POMsSent      uint64
	// SlowTimeouts counts the requests that waited out the slow-path timer:
	// it fired with a slow quorum in hand and some replica's reply missing.
	SlowTimeouts uint64
	// SilentSkips counts the slow-path commits sent without that wait
	// because every replica still missing was marked silent (ReplyWatch).
	SilentSkips uint64
}

// Client is a protocol client as the substrates see it: a schedulable
// process, a workload submitter, and a stats source.
type Client interface {
	proc.Process
	workload.Submitter
	// ClientStats returns a protocol-neutral counter snapshot.
	ClientStats() ClientStats
}

// Unwrapper exposes the concrete protocol value behind an engine adapter,
// for callers (experiments, tests) that need protocol-specific inspection.
type Unwrapper interface{ Unwrap() any }

// Unwrap returns the concrete protocol value behind v if v is an engine
// adapter, and v itself otherwise.
func Unwrap(v any) any {
	if u, ok := v.(Unwrapper); ok {
		return u.Unwrap()
	}
	return v
}

// Engine builds one protocol's processes. Implementations are stateless
// factories, safe for concurrent use.
type Engine interface {
	// Protocol returns the engine's registry name.
	Protocol() Protocol
	// NewReplica builds one replica process.
	NewReplica(opts ReplicaOptions) (proc.Process, error)
	// NewClient builds one client process driven by opts.Driver.
	NewClient(opts ClientOptions) (Client, error)
	// InboundVerifier returns a predicate that pre-verifies the signatures
	// of this protocol's hot-path ordering frames outside the process loop
	// (feed it to transport.NewVerifyPool), or nil when the protocol has
	// none. The predicate must be safe for concurrent use and should mark
	// verified messages so the process loop skips re-checking them.
	InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool
}

var (
	registryMu sync.RWMutex
	registry   = make(map[Protocol]Engine)
)

// Register installs an engine; it panics on a duplicate protocol name
// (registration happens from init functions, where a duplicate is a
// programming error, exactly like a codec tag collision).
func Register(e Engine) {
	registryMu.Lock()
	defer registryMu.Unlock()
	p := e.Protocol()
	if _, dup := registry[p]; dup {
		panic(fmt.Sprintf("engine: protocol %q registered twice", p))
	}
	registry[p] = e
}

// Lookup resolves a protocol name to its engine. Unknown names — including
// names whose package simply is not linked in — return an error listing
// the registered protocols, so misconfigured deployments fail loudly
// instead of silently running the wrong protocol.
func Lookup(p Protocol) (Engine, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	if e, ok := registry[p]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("engine: unknown protocol %q (registered: %v)", p, protocolsLocked())
}

// Protocols returns the registered protocol names in sorted order.
func Protocols() []Protocol {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return protocolsLocked()
}

func protocolsLocked() []Protocol {
	out := make([]Protocol, 0, len(registry))
	for p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
