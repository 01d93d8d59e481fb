package core

import (
	"errors"
	"fmt"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// Configuration errors.
var (
	ErrBadClusterSize = errors.New("core: cluster size must be 3f+1 for some f >= 1 and at most 64")
	ErrBadReplicaID   = errors.New("core: replica id out of range")
	ErrNilApp         = errors.New("core: application must not be nil")
	ErrNilAuth        = errors.New("core: authenticator must not be nil")
)

// Defaults for timeouts; experiments override them to match their topology.
const (
	DefaultResendTimeout = 2 * time.Second
	// DefaultBatchDelay is how long an accumulating batch waits for more
	// requests before it is flushed (only relevant when BatchSize > 1). It
	// must stay far below client retry timeouts.
	DefaultBatchDelay = 2 * time.Millisecond
	// MaxBatchSize bounds the requests a single instance may order.
	MaxBatchSize = maxBatch - 1
)

// ReplicaConfig configures one ezBFT replica.
type ReplicaConfig struct {
	// Self is this replica's identifier in [0, N).
	Self types.ReplicaID
	// N is the cluster size; must be 3f+1 and at most 64 (maxSigners).
	N int
	// App is the replicated application; ezBFT requires speculative
	// execution support.
	App types.SpeculativeApplication
	// Auth signs and verifies messages for this replica.
	Auth auth.Authenticator
	// Costs holds the virtual processing costs charged in simulation.
	Costs proc.Costs
	// ResendTimeout bounds how long a replica waits for a SPECORDER after
	// forwarding a RESENDREQ before initiating an owner change.
	ResendTimeout time.Duration
	// DepWaitTimeout bounds how long final execution waits for an
	// uncommitted dependency before initiating an owner change for the
	// dependency's instance space.
	DepWaitTimeout time.Duration
	// BatchSize is the maximum number of client requests this replica, as
	// command-leader, orders per instance. 0 or 1 disables batching and
	// reproduces the paper's one-instance-per-request flow exactly.
	BatchSize int
	// BatchDelay is how long an incomplete batch waits for more requests
	// before flushing (default DefaultBatchDelay; only used when
	// BatchSize > 1).
	BatchDelay time.Duration
	// CheckpointInterval enables the log lifecycle subsystem (see
	// checkpoint.go): every instance space is checkpointed each time a
	// replica's contiguously executed prefix crosses a multiple of this
	// many slots, and entries below a 2f+1-stable checkpoint are truncated.
	// 0 (the default) disables checkpointing entirely — no extra messages,
	// byte-identical to the pre-checkpointing protocol.
	CheckpointInterval uint64
	// LogRetention keeps this many additional slots below the stable
	// low-water mark when truncating (0 = truncate everything below it).
	LogRetention uint64
	// Store, when non-nil, is the replica's durability layer (see
	// internal/store and durable.go): ordering-critical state is
	// write-ahead-logged through it before the replica acts, stable
	// checkpoints cut its snapshot, and a restart rebuilds the replica
	// from it. Nil (the default) keeps the replica memoryless across
	// restarts — byte-identical to the pre-durability behaviour.
	Store store.Store
	// Mute makes the replica send nothing while it still receives:
	// fail-silent, distinguishable from a crash only from outside.
	Mute bool
	// Behavior, when non-nil, intercepts every message this replica sends
	// and receives (adversarial scenario harness; see engine.Behavior).
	Behavior engine.Behavior
}

func (c *ReplicaConfig) validate() error {
	if c.N < 4 || (c.N-1)%3 != 0 || c.N > maxSigners {
		return fmt.Errorf("%w: N=%d", ErrBadClusterSize, c.N)
	}
	if c.Self < 0 || int(c.Self) >= c.N {
		return fmt.Errorf("%w: %d", ErrBadReplicaID, c.Self)
	}
	if c.App == nil {
		return ErrNilApp
	}
	if c.Auth == nil {
		return ErrNilAuth
	}
	if c.ResendTimeout <= 0 {
		c.ResendTimeout = DefaultResendTimeout
	}
	if c.DepWaitTimeout <= 0 {
		c.DepWaitTimeout = c.ResendTimeout
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.BatchSize > MaxBatchSize {
		return fmt.Errorf("core: batch size %d exceeds maximum %d", c.BatchSize, MaxBatchSize)
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = DefaultBatchDelay
	}
	return nil
}

// F returns the fault threshold for a cluster of n replicas (n = 3f+1).
func F(n int) int { return (n - 1) / 3 }

// FastQuorum returns the fast-path quorum size (3f+1: every replica).
func FastQuorum(n int) int { return n }

// SlowQuorum returns the slow-path quorum size (2f+1).
func SlowQuorum(n int) int { return 2*F(n) + 1 }

// WeakQuorum returns f+1, the size that guarantees one correct member.
func WeakQuorum(n int) int { return F(n) + 1 }

// SlowQuorumMembers returns the command-leader's known slow quorum (the
// paper's "Nitpick" in §IV-C): leader and the 2f next replicas in ring
// order. Clients use it to pick which dependency sets to combine when more
// than 2f+1 replies arrive.
func SlowQuorumMembers(leader types.ReplicaID, n int) []types.ReplicaID {
	q := make([]types.ReplicaID, 0, SlowQuorum(n))
	for i := 0; i < SlowQuorum(n); i++ {
		q = append(q, types.ReplicaID((int(leader)+i)%n))
	}
	return q
}
