package engine

import (
	"fmt"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// QuorumClientConfig configures a QuorumClient.
type QuorumClientConfig struct {
	ID types.ClientID
	N  int
	// Primary is the replica the client first believes is primary; it
	// learns later views from replies.
	Primary types.ReplicaID
	Auth    auth.Authenticator
	Costs   proc.Costs
	Driver  workload.Driver
	// RetryTimeout is how long to wait for f+1 matching replies before
	// retransmitting to all replicas (default 4 s, doubling per retry up to
	// 64 times).
	RetryTimeout time.Duration
}

// Quorum returns the options as a QuorumClient's configuration; a
// LatencyBound sets RetryTimeout to eight of it.
func (o ClientOptions) Quorum() QuorumClientConfig {
	c := QuorumClientConfig{ID: o.ID, N: o.N, Primary: o.Primary, Auth: o.Auth, Costs: o.Costs, Driver: o.Driver}
	if o.LatencyBound > 0 {
		c.RetryTimeout = 8 * o.LatencyBound
	}
	return c
}

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

type quorumPending[P, Y any] struct {
	cmd     types.Command
	req     P
	issued  time.Duration
	replies map[types.ReplicaID]Y
	retries int
}

// QuorumClient is the client of the sequenced protocols whose replicas
// answer only once a request is final (PBFT, FaB). It is passive: it sends
// each request to the primary it believes in and accepts the result f+1
// replicas report identically, at least one of them correct. Without one in
// RetryTimeout it retransmits to every replica; backups forward to the
// primary and start suspecting it. It implements Client.
type QuorumClient[R any, P ClientRequest[R], Y QuorumReply] struct {
	cfg QuorumClientConfig
	f   int

	nextTS   uint64
	view     uint64
	pending  map[uint64]*quorumPending[P, Y]
	stats    ClientStats
	replicas []types.NodeID // every replica's address, for retransmission
}

// NewQuorumClient builds a QuorumClient; name prefixes configuration
// errors.
func NewQuorumClient[R any, P ClientRequest[R], Y QuorumReply](name string, cfg QuorumClientConfig) (*QuorumClient[R, P, Y], error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("%s: cluster size must be 3f+1, got %d", name, cfg.N)
	}
	if cfg.Auth == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("%s: auth and driver are required", name)
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 4 * time.Second
	}
	c := &QuorumClient[R, P, Y]{
		cfg:     cfg,
		f:       (cfg.N - 1) / 3,
		view:    uint64(cfg.Primary),
		pending: make(map[uint64]*quorumPending[P, Y]),
	}
	for i := 0; i < cfg.N; i++ {
		c.replicas = append(c.replicas, types.ReplicaNode(types.ReplicaID(i)))
	}
	return c, nil
}

// ID implements proc.Process.
func (c *QuorumClient[R, P, Y]) ID() types.NodeID { return types.ClientNode(c.cfg.ID) }

// ClientID implements workload.Submitter.
func (c *QuorumClient[R, P, Y]) ClientID() types.ClientID { return c.cfg.ID }

// InFlight implements workload.Submitter.
func (c *QuorumClient[R, P, Y]) InFlight() int { return len(c.pending) }

// ClientStats implements Client. There is a single commit path, so every
// completion counts as a slow decision.
func (c *QuorumClient[R, P, Y]) ClientStats() ClientStats {
	s := c.stats
	s.SlowDecisions = s.Completed
	return s
}

// Init implements proc.Process.
func (c *QuorumClient[R, P, Y]) Init(ctx proc.Context) { c.cfg.Driver.Start(ctx, c) }

// Submit implements workload.Submitter; it returns the timestamp assigned
// to the command.
func (c *QuorumClient[R, P, Y]) Submit(ctx proc.Context, cmd types.Command) uint64 {
	c.nextTS++
	ts := c.nextTS
	cmd.Client = c.cfg.ID
	cmd.Timestamp = ts
	req := P(new(R))
	*req.Command() = cmd
	c.cfg.Costs.ChargeSign(ctx)
	req.SetSignature(SignBody(c.cfg.Auth, req))
	c.pending[ts] = &quorumPending[P, Y]{
		cmd:     cmd,
		req:     req,
		issued:  ctx.Now(),
		replies: make(map[types.ReplicaID]Y, c.cfg.N),
	}
	c.stats.Submitted++
	ctx.Send(types.ReplicaNode(types.ReplicaID(c.view%uint64(c.cfg.N))), req)
	ctx.SetTimer(proc.TimerID(ts), c.cfg.RetryTimeout)
	return ts
}

// Receive implements proc.Process: a reply completes its request once f+1
// replicas reported the same result. A replica's later reply replaces its
// earlier one, so only the result just received can have reached f+1.
func (c *QuorumClient[R, P, Y]) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	m, ok := msg.(Y)
	if !ok {
		return
	}
	r := m.Info()
	p, okp := c.pending[r.Timestamp]
	if !okp || r.Client != c.cfg.ID {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := VerifyBody(c.cfg.Auth, types.ReplicaNode(r.Replica), m, r.Sig); err != nil {
			return
		}
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
	if matching < c.f+1 {
		return
	}
	delete(c.pending, r.Timestamp)
	ctx.CancelTimer(proc.TimerID(r.Timestamp))
	c.stats.Completed++
	c.cfg.Driver.Completed(ctx, c, workload.Completion{
		Cmd:     p.cmd,
		Result:  r.Result,
		Latency: ctx.Now() - p.issued,
		At:      ctx.Now(),
	})
}

// OnTimer implements proc.Process.
func (c *QuorumClient[R, P, Y]) OnTimer(ctx proc.Context, id proc.TimerID) {
	if id >= workload.DriverTimerBase {
		c.cfg.Driver.OnTimer(ctx, c, id)
		return
	}
	p, ok := c.pending[uint64(id)]
	if !ok {
		return
	}
	p.retries++
	c.stats.Retries++
	proc.Broadcast(ctx, c.replicas, p.req)
	ctx.SetTimer(id, c.cfg.RetryTimeout<<uint(min(p.retries, 6)))
}
