package zyzzyva

import (
	"fmt"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// zyEngine plugs Zyzzyva into the protocol-agnostic replication engine.
type zyEngine struct{}

var _ engine.Engine = zyEngine{}

func init() { engine.Register(zyEngine{}) }

// Protocol implements engine.Engine.
func (zyEngine) Protocol() engine.Protocol { return engine.Zyzzyva }

// NewReplica implements engine.Engine.
func (zyEngine) NewReplica(o engine.ReplicaOptions) (proc.Process, error) {
	if o.Store != nil {
		return nil, fmt.Errorf("zyzzyva: %w", engine.ErrNoWAL)
	}
	return NewReplica(o.Sequenced())
}

// NewClient implements engine.Engine.
func (zyEngine) NewClient(o engine.ClientOptions) (engine.Client, error) {
	cfg := ClientConfig{
		ID: o.ID, N: o.N, Primary: o.Primary, Auth: o.Auth, Costs: o.Costs,
		Driver: o.Driver,
	}
	if o.LatencyBound > 0 {
		cfg.CommitTimeout = o.LatencyBound
		cfg.RetryTimeout = 8 * o.LatencyBound
	}
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// InboundVerifier implements engine.Engine: every signed Zyzzyva message
// verifies on the transport worker pool.
func (zyEngine) InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return PreVerifier(a, n)
}

// PreVerifier returns the transport-side verification predicate for a
// Zyzzyva node (replica or client) in a cluster of n: every signature the
// process loop checks unconditionally — the ORDERREQ primary + embedded
// client signatures, REQUEST client signatures, the SPECRESPONSE
// signatures inside COMMITCERT certificates, view-change votes, and
// SPECRESPONSE/LOCALCOMMIT replica signatures at clients — is checked on
// the pool workers and the message marked, so the loop skips re-verifying
// it; unknown message types pass through untouched. Safe for concurrent
// use.
func PreVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return func(msg codec.Message) bool {
		switch m := msg.(type) {
		case *Request:
			return engine.VerifySigned(a, types.ClientNode(m.Cmd.Client), m, m.Sig)
		case *OrderReq:
			return engine.VerifyFrame(a, types.ReplicaNode(primaryOf(m.View, n)), m, maxBatch-1)
		case *SpecResponse:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *CommitCert:
			// The certificate itself carries no signature; the per-element
			// marks are what the loop's validation consults.
			for _, sr := range m.Cert {
				if !engine.VerifySigned(a, types.ReplicaNode(sr.Replica), sr, sr.Sig) {
					return false
				}
			}
			return true
		case *LocalCommit:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		default:
			ok, handled := engine.PreVerifyShared(a, msg)
			return ok || !handled
		}
	}
}
