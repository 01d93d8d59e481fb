package engine

import (
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// ReplyInfo is what a QuorumClient reads of a reply.
type ReplyInfo struct {
	View      uint64
	Timestamp uint64
	Client    types.ClientID
	Replica   types.ReplicaID
	Result    types.Result
	Sig       []byte
}

// QuorumReply is the surface a protocol's REPLY gives a QuorumClient.
type QuorumReply interface {
	codec.Message
	SignedMessage
	Info() ReplyInfo
}

type quorumPending[Y any] struct {
	Pending
	replies map[types.ReplicaID]Y
}

// QuorumClient is the client of the sequenced protocols whose replicas
// answer only once a request is final (PBFT, FaB). It is passive: it sends
// each request to the primary it believes in and accepts the result f+1
// replicas report identically, at least one of them correct. Without one in
// RetryTimeout it retransmits to every replica (ClientCore.Retry). It
// implements Client.
type QuorumClient[R any, P ClientRequest[R], Y QuorumReply] struct {
	ClientCore[quorumPending[Y], *quorumPending[Y]]
	view uint64
}

// NewQuorumClient builds a QuorumClient; name prefixes configuration
// errors.
func NewQuorumClient[R any, P ClientRequest[R], Y QuorumReply](name string, cfg ClientConfig) (*QuorumClient[R, P, Y], error) {
	c := &QuorumClient[R, P, Y]{view: uint64(cfg.Leader)}
	if err := c.Setup(name, cfg, c, false); err != nil {
		return nil, err
	}
	return c, nil
}

// Submit implements workload.Submitter; it returns the timestamp assigned
// to the command.
func (c *QuorumClient[R, P, Y]) Submit(ctx proc.Context, cmd types.Command) uint64 {
	req := P(new(R))
	*req.Command() = cmd
	p := &quorumPending[Y]{replies: make(map[types.ReplicaID]Y, c.Cfg.N)}
	return c.Issue(ctx, p, req, types.ReplicaID(c.view%uint64(c.Cfg.N)))
}

// Receive implements proc.Process: a reply completes its request once f+1
// replicas reported the same result. A replica's later reply replaces its
// earlier one, so only the result just received can have reached f+1. There
// is a single commit path, so every completion counts as a slow decision.
func (c *QuorumClient[R, P, Y]) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	m, ok := msg.(Y)
	if !ok {
		return
	}
	r := m.Info()
	p, okp := c.Pending[r.Timestamp]
	if !okp || r.Client != c.Cfg.ID || !c.Verified(ctx, r.Replica, m, r.Sig) {
		return
	}
	if r.View > c.view {
		c.view = r.View
	}
	p.replies[r.Replica] = m
	matching := 0
	for _, rep := range p.replies {
		if rep.Info().Result.Equal(r.Result) {
			matching++
		}
	}
	if matching > c.F {
		c.Count.SlowDecisions++
		c.Finish(ctx, p, r.Result, false)
	}
}

// OnTimer implements proc.Process.
func (c *QuorumClient[R, P, Y]) OnTimer(ctx proc.Context, id proc.TimerID) {
	if kind, p := c.Expired(ctx, id); kind == RetryTimer {
		c.Retry(ctx, p)
	}
}
