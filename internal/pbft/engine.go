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
	r, err := NewReplica(o.Sequenced())
	if err != nil {
		return nil, err
	}
	r.LogTo(o.Store)
	return r, nil
}

// NewClient implements engine.Engine.
func (pbftEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	c, err := NewClient(o.Config())
	if err != nil {
		return nil, err
	}
	return c, nil
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
		case *Reply:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		default:
			ok, handled := engine.PreVerifyShared(a, msg)
			return ok || !handled
		}
	}
}

// ClientConfig configures a PBFT client.
type ClientConfig = engine.ClientConfig

// Client is a PBFT client: it sends each request to the primary and
// accepts a result backed by f+1 matching replies.
type Client = engine.QuorumClient[Request, *Request, *Reply]

// NewClient constructs a PBFT client.
func NewClient(cfg ClientConfig) (*Client, error) {
	return engine.NewQuorumClient[Request, *Request, *Reply]("pbft", cfg)
}
