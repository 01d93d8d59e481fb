package pbft

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// pbftEngine plugs PBFT into the protocol-agnostic replication engine.
type pbftEngine struct{}

var _ engine.Engine = pbftEngine{}

func init() { engine.Register(pbftEngine{}) }

// Protocol implements engine.Engine.
func (pbftEngine) Protocol() engine.Protocol { return engine.PBFT }

// NewReplica implements engine.Engine.
func (pbftEngine) NewReplica(o engine.ReplicaOptions) (proc.Process, error) {
	cfg := ReplicaConfig{
		Self: o.Self, N: o.N, App: o.App, Auth: o.Auth, Costs: o.Costs,
		InitialView:        uint64(o.Primary),
		CheckpointInterval: o.CheckpointInterval,
		LogRetention:       o.LogRetention,
		BatchSize:          o.BatchSize,
		BatchDelay:         o.BatchDelay,
		Store:              o.Store,
		Mute:               o.Mute,
		Behavior:           o.Behavior,
	}
	if o.LatencyBound > 0 {
		cfg.ForwardTimeout = 4 * o.LatencyBound
	}
	return NewReplica(cfg)
}

// NewClient implements engine.Engine.
func (pbftEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	cfg := ClientConfig{
		ID: o.ID, N: o.N, Primary: o.Primary, Auth: o.Auth, Costs: o.Costs,
		Driver: o.Driver,
	}
	if o.LatencyBound > 0 {
		cfg.RetryTimeout = 8 * o.LatencyBound
	}
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	return pbftClient{c}, nil
}

// InboundVerifier implements engine.Engine: every signed PBFT message
// verifies on the transport worker pool.
func (pbftEngine) InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return PreVerifier(a, n)
}

// PreVerifier returns the transport-side verification predicate for a PBFT
// node (replica or client) in a cluster of n: every signature the process
// loop checks unconditionally — the PRE-PREPARE primary + embedded client
// signatures, REQUEST client signatures, PREPARE/COMMIT/CHECKPOINT votes,
// view-change traffic, and REPLY replica signatures at clients — is
// checked on the pool workers and the message marked, so the loop skips
// re-verifying it; unknown message types pass through untouched. Safe for
// concurrent use.
func PreVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return func(msg codec.Message) bool {
		switch m := msg.(type) {
		case *Request:
			return engine.VerifySigned(a, types.ClientNode(m.Cmd.Client), m, m.Sig)
		case *PrePrepare:
			return engine.VerifyFrame(a, types.ReplicaNode(primaryOf(m.View, n)), m, maxBatch-1)
		case *Prepare:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *Commit:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *ViewChange:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *NewView:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *Reply:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		default:
			ok, handled := engine.PreVerifyLog(a, msg)
			return ok || !handled
		}
	}
}

// pbftClient adapts *Client to the engine contract.
type pbftClient struct{ *Client }

var (
	_ engine.Client    = pbftClient{}
	_ engine.Unwrapper = pbftClient{}
)

// ClientStats implements engine.Client. PBFT has a single commit path, so
// every completion counts as a slow decision.
func (c pbftClient) ClientStats() engine.ClientStats {
	s := c.Client.Stats()
	return engine.ClientStats{
		Submitted:     s.Submitted,
		Completed:     s.Completed,
		SlowDecisions: s.Completed,
		Retries:       s.Retries,
	}
}

// Unwrap implements engine.Unwrapper.
func (c pbftClient) Unwrap() any { return c.Client }
