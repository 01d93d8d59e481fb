package pbft

import (
	"fmt"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// ClientConfig configures a PBFT client.
type ClientConfig struct {
	ID      types.ClientID
	N       int
	Primary types.ReplicaID
	Auth    auth.Authenticator
	Costs   proc.Costs
	Driver  workload.Driver
	// RetryTimeout is how long to wait for f+1 matching replies before
	// retransmitting to all replicas.
	RetryTimeout time.Duration
}

// ClientStats exposes client-side counters.
type ClientStats struct {
	Submitted uint64
	Completed uint64
	Retries   uint64
}

type pendingReq struct {
	cmd     types.Command
	req     *Request
	issued  time.Duration
	replies map[types.ReplicaID]*Reply
	retries int
}

// Client is a PBFT client; it implements proc.Process. PBFT clients are
// passive: they send the request to the primary and accept a result backed
// by f+1 matching replies.
type Client struct {
	cfg ClientConfig
	n   int
	f   int

	nextTS  uint64
	view    uint64
	pending map[uint64]*pendingReq
	stats   ClientStats

	// replicas lists every replica's address, precomputed for broadcasts.
	replicas []types.NodeID
}

var (
	_ proc.Process       = (*Client)(nil)
	_ workload.Submitter = (*Client)(nil)
)

// NewClient constructs a PBFT client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("pbft: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.Auth == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("pbft: auth and driver are required")
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 4 * time.Second
	}
	c := &Client{
		cfg:     cfg,
		n:       cfg.N,
		f:       faults(cfg.N),
		view:    uint64(cfg.Primary),
		pending: make(map[uint64]*pendingReq),
	}
	for i := 0; i < cfg.N; i++ {
		c.replicas = append(c.replicas, types.ReplicaNode(types.ReplicaID(i)))
	}
	return c, nil
}

// ID implements proc.Process.
func (c *Client) ID() types.NodeID { return types.ClientNode(c.cfg.ID) }

// ClientID implements workload.Submitter.
func (c *Client) ClientID() types.ClientID { return c.cfg.ID }

// InFlight implements workload.Submitter.
func (c *Client) InFlight() int { return len(c.pending) }

// Stats returns a snapshot of client counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Init implements proc.Process.
func (c *Client) Init(ctx proc.Context) { c.cfg.Driver.Start(ctx, c) }

// Submit implements workload.Submitter; it returns the timestamp assigned
// to the command.
func (c *Client) Submit(ctx proc.Context, cmd types.Command) uint64 {
	c.nextTS++
	ts := c.nextTS
	cmd.Client = c.cfg.ID
	cmd.Timestamp = ts
	req := &Request{Cmd: cmd}
	c.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(c.cfg.Auth, req)
	c.pending[ts] = &pendingReq{
		cmd:     cmd,
		req:     req,
		issued:  ctx.Now(),
		replies: make(map[types.ReplicaID]*Reply, c.n),
	}
	c.stats.Submitted++
	ctx.Send(types.ReplicaNode(primaryOf(c.view, c.n)), req)
	ctx.SetTimer(proc.TimerID(ts), c.cfg.RetryTimeout)
	return ts
}

// Receive implements proc.Process.
func (c *Client) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	m, ok := msg.(*Reply)
	if !ok {
		return
	}
	p, okp := c.pending[m.Timestamp]
	if !okp || m.Client != c.cfg.ID {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			return
		}
	}
	if m.View > c.view {
		c.view = m.View
	}
	p.replies[m.Replica] = m

	// f+1 matching replies carry the result.
	counts := make(map[string]int, 2)
	for _, rep := range p.replies {
		key := fmt.Sprintf("%t|%x", rep.Result.OK, rep.Result.Value)
		counts[key]++
		if counts[key] >= c.f+1 {
			c.finish(ctx, m.Timestamp, p, rep.Result)
			return
		}
	}
}

// OnTimer implements proc.Process.
func (c *Client) OnTimer(ctx proc.Context, id proc.TimerID) {
	if id >= workload.DriverTimerBase {
		c.cfg.Driver.OnTimer(ctx, c, id)
		return
	}
	ts := uint64(id)
	p, ok := c.pending[ts]
	if !ok {
		return
	}
	p.retries++
	c.stats.Retries++
	// Retransmit to all replicas; backups forward to the primary and start
	// suspecting it (the PBFT retransmission rule).
	proc.Broadcast(ctx, c.replicas, p.req)
	shift := p.retries
	if shift > 6 {
		shift = 6
	}
	ctx.SetTimer(id, c.cfg.RetryTimeout<<uint(shift))
}

func (c *Client) finish(ctx proc.Context, ts uint64, p *pendingReq, res types.Result) {
	delete(c.pending, ts)
	ctx.CancelTimer(proc.TimerID(ts))
	c.stats.Completed++
	c.cfg.Driver.Completed(ctx, c, workload.Completion{
		Cmd:      p.cmd,
		Result:   res,
		Latency:  ctx.Now() - p.issued,
		At:       ctx.Now(),
		FastPath: false, // PBFT has a single path
	})
}
