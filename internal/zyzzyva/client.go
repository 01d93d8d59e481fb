package zyzzyva

import (
	"fmt"
	"sort"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// ClientConfig configures a Zyzzyva client.
type ClientConfig struct {
	ID types.ClientID
	N  int
	// Primary is the replica currently believed to be primary; the client
	// learns new views from responses.
	Primary types.ReplicaID
	Auth    auth.Authenticator
	Costs   proc.Costs
	Driver  workload.Driver
	// CommitTimeout is how long to wait for 3f+1 matching responses before
	// falling back to the commit-certificate path.
	CommitTimeout time.Duration
	// RetryTimeout is how long to wait before retransmitting to all
	// replicas.
	RetryTimeout time.Duration
}

// ClientStats exposes client-side counters. SilentSkips stays zero: this
// client keeps no engine.ReplyWatch and waits out CommitTimeout for every
// request a replica leaves unanswered.
type ClientStats = engine.ClientStats

type pendingReq struct {
	cmd       types.Command
	req       *Request
	issued    time.Duration
	responses map[types.ReplicaID]*SpecResponse
	certSent  bool
	certSeq   uint64
	cert      *CommitCert
	locals    map[types.ReplicaID]*LocalCommit
	retries   int
}

// Client is a Zyzzyva client; it implements proc.Process.
type Client struct {
	cfg ClientConfig
	n   int
	f   int

	nextTS  uint64
	view    uint64 // learned from responses
	pending map[uint64]*pendingReq
	stats   ClientStats

	// replicas lists every replica's address, precomputed for broadcasts.
	replicas []types.NodeID
}

var _ engine.Client = (*Client)(nil)

const (
	timerKindCommit = 1
	timerKindRetry  = 2
)

// NewClient constructs a Zyzzyva client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("zyzzyva: cluster size must be 3f+1, got %d", cfg.N)
	}
	if cfg.Auth == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("zyzzyva: auth and driver are required")
	}
	if cfg.CommitTimeout <= 0 {
		cfg.CommitTimeout = 400 * time.Millisecond
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

// ClientStats implements engine.Client.
func (c *Client) ClientStats() ClientStats { return c.stats }

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
		cmd:       cmd,
		req:       req,
		issued:    ctx.Now(),
		responses: make(map[types.ReplicaID]*SpecResponse, c.n),
		locals:    make(map[types.ReplicaID]*LocalCommit, c.n),
	}
	c.stats.Submitted++
	ctx.Send(types.ReplicaNode(primaryOf(c.view, c.n)), req)
	ctx.SetTimer(proc.TimerID(ts*4+timerKindCommit), c.cfg.CommitTimeout)
	ctx.SetTimer(proc.TimerID(ts*4+timerKindRetry), c.cfg.RetryTimeout)
	return ts
}

// Receive implements proc.Process.
func (c *Client) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	switch m := msg.(type) {
	case *SpecResponse:
		c.handleSpecResponse(ctx, m)
	case *LocalCommit:
		c.handleLocalCommit(ctx, m)
	}
}

// OnTimer implements proc.Process.
func (c *Client) OnTimer(ctx proc.Context, id proc.TimerID) {
	if id >= workload.DriverTimerBase {
		c.cfg.Driver.OnTimer(ctx, c, id)
		return
	}
	ts := uint64(id) / 4
	p, ok := c.pending[ts]
	if !ok {
		return
	}
	switch uint64(id) % 4 {
	case timerKindCommit:
		// Re-arm regardless of outcome: a certificate (or the
		// LOCALCOMMITs answering it) can be lost in transit, and only
		// finish() retires this timer.
		if c.tryCommitCert(ctx, p) {
			c.stats.SlowTimeouts++
		}
		ctx.SetTimer(id, c.cfg.CommitTimeout)
	case timerKindRetry:
		p.retries++
		c.stats.Retries++
		// Retransmit to every replica; backups forward to the primary and
		// start suspecting it.
		proc.Broadcast(ctx, c.replicas, p.req)
		shift := p.retries
		if shift > 6 {
			shift = 6
		}
		ctx.SetTimer(id, c.cfg.RetryTimeout<<uint(shift))
	}
}

func (c *Client) handleSpecResponse(ctx proc.Context, m *SpecResponse) {
	p, ok := c.pending[m.Timestamp]
	if !ok || m.Client != c.cfg.ID {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			return
		}
	}
	if m.CmdDigest != p.cmd.Digest() {
		return
	}
	if m.View > c.view {
		c.view = m.View // learn the new primary
	}
	p.responses[m.Replica] = m

	// Fast path: 3f+1 matching speculative responses.
	matching := c.matchingSet(p)
	if len(matching) >= fastQuorum(c.n) {
		c.stats.FastDecisions++
		c.finish(ctx, m.Timestamp, p, matching[0].Result, true)
	}
}

// matchingSet returns the largest set of mutually matching responses.
func (c *Client) matchingSet(p *pendingReq) []*SpecResponse {
	var best []*SpecResponse
	rids := make([]types.ReplicaID, 0, len(p.responses))
	for rid := range p.responses {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, ref := range rids {
		var set []*SpecResponse
		for _, rid := range rids {
			if p.responses[rid].Matches(p.responses[ref]) {
				set = append(set, p.responses[rid])
			}
		}
		if len(set) > len(best) {
			best = set
		}
	}
	return best
}

// tryCommitCert implements the slow path: with 2f+1 matching responses,
// broadcast a commit certificate and gather LOCALCOMMITs.
func (c *Client) tryCommitCert(ctx proc.Context, p *pendingReq) bool {
	if p.certSent {
		// The certificate — or the LOCALCOMMITs it earned — may have been
		// lost in transit. Re-drive the slow path: handleCommitCert is
		// idempotent, so replicas that already acknowledged simply answer
		// again. Returning false keeps the commit timer armed.
		proc.Broadcast(ctx, c.replicas, p.cert)
		return false
	}
	matching := c.matchingSet(p)
	if len(matching) < commQuorum(c.n) {
		return false
	}
	cert := matching[:commQuorum(c.n)]
	cc := &CommitCert{
		Client:    c.cfg.ID,
		Timestamp: p.cmd.Timestamp,
		Seq:       cert[0].Seq,
		CmdDigest: cert[0].CmdDigest,
		Cert:      cert,
	}
	proc.Broadcast(ctx, c.replicas, cc)
	p.certSent = true
	p.certSeq = cc.Seq
	p.cert = cc
	c.stats.SlowDecisions++
	return true
}

func (c *Client) handleLocalCommit(ctx proc.Context, m *LocalCommit) {
	var (
		ts uint64
		p  *pendingReq
	)
	for candTS, cand := range c.pending {
		if cand.certSent && cand.certSeq == m.Seq && cand.cmd.Digest() == m.CmdDigest {
			ts, p = candTS, cand
			break
		}
	}
	if p == nil {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			return
		}
	}
	p.locals[m.Replica] = m
	if len(p.locals) >= commQuorum(c.n) {
		c.finish(ctx, ts, p, m.Result, false)
	}
}

func (c *Client) finish(ctx proc.Context, ts uint64, p *pendingReq, res types.Result, fast bool) {
	delete(c.pending, ts)
	ctx.CancelTimer(proc.TimerID(ts*4 + timerKindCommit))
	ctx.CancelTimer(proc.TimerID(ts*4 + timerKindRetry))
	c.stats.Completed++
	c.cfg.Driver.Completed(ctx, c, workload.Completion{
		Cmd:      p.cmd,
		Result:   res,
		Latency:  ctx.Now() - p.issued,
		At:       ctx.Now(),
		FastPath: fast,
	})
}
