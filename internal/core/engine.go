package core

import (
	"fmt"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// ezEngine plugs ezBFT into the protocol-agnostic replication engine.
type ezEngine struct{}

var _ engine.Engine = ezEngine{}

func init() { engine.Register(ezEngine{}) }

// Protocol implements engine.Engine.
func (ezEngine) Protocol() engine.Protocol { return engine.EZBFT }

// NewReplica implements engine.Engine. ezBFT replicas speculate, so the
// application must support speculative execution.
func (ezEngine) NewReplica(o engine.ReplicaOptions) (proc.Process, error) {
	app, ok := o.App.(types.SpeculativeApplication)
	if !ok {
		return nil, fmt.Errorf("core: ezbft requires a speculative application, got %T", o.App)
	}
	cfg := ReplicaConfig{
		Self: o.Self, N: o.N, App: app, Auth: o.Auth, Costs: o.Costs,
		BatchSize:          o.BatchSize,
		BatchDelay:         o.BatchDelay,
		CheckpointInterval: o.CheckpointInterval,
		LogRetention:       o.LogRetention,
		Store:              o.Store,
		Mute:               o.Mute,
		Behavior:           o.Behavior,
	}
	if o.LatencyBound > 0 {
		cfg.ResendTimeout = 2 * o.LatencyBound
		cfg.DepWaitTimeout = 2 * o.LatencyBound
	}
	return NewReplica(cfg)
}

// NewClient implements engine.Engine. ezBFT clients submit to their
// co-located replica (opts.Nearest); the protocol has no primary.
func (ezEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	cfg := o.Config()
	cfg.Leader = o.Nearest
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// InboundVerifier implements engine.Engine: every signed ezBFT message —
// SPECORDER batches, REQUESTs, COMMIT/COMMITFAST certificates, SPECREPLY
// and COMMITREPLY (client-bound), owner-change traffic, and POMs — verifies
// on the transport worker pool.
func (ezEngine) InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return InboundVerifier(a, n)
}
