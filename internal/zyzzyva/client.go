package zyzzyva

import (
	"sort"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// ClientConfig configures a Zyzzyva client: Leader is the replica it
// first believes is primary, and SlowPathTimeout how long it waits for 3f+1
// matching responses before falling back to the commit certificate.
type ClientConfig = engine.ClientConfig

// ClientStats exposes the client core's counters. SilentSkips stays zero:
// this client keeps no engine.ReplyWatch and waits out SlowPathTimeout for
// every request a replica leaves unanswered.
type ClientStats = engine.ClientStats

type pendingReq struct {
	engine.Pending
	responses map[types.ReplicaID]*SpecResponse
	certSent  bool
	certSeq   uint64
	cert      *CommitCert
	locals    map[types.ReplicaID]*LocalCommit
}

// Client is a Zyzzyva client; it implements proc.Process.
type Client struct {
	engine.ClientCore[pendingReq, *pendingReq]
	view uint64 // learned from responses
}

var _ engine.Client = (*Client)(nil)

// NewClient constructs a Zyzzyva client.
func NewClient(cfg ClientConfig) (*Client, error) {
	c := &Client{view: uint64(cfg.Leader)}
	if err := c.Setup("zyzzyva", cfg, c, true); err != nil {
		return nil, err
	}
	return c, nil
}

// Submit implements workload.Submitter; it returns the timestamp assigned
// to the command.
func (c *Client) Submit(ctx proc.Context, cmd types.Command) uint64 {
	p := &pendingReq{
		responses: make(map[types.ReplicaID]*SpecResponse, c.Cfg.N),
		locals:    make(map[types.ReplicaID]*LocalCommit, c.Cfg.N),
	}
	return c.Issue(ctx, p, &Request{Cmd: cmd}, primaryOf(c.view, c.Cfg.N))
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
	switch kind, p := c.Expired(ctx, id); kind {
	case engine.SlowTimer:
		// Re-arm regardless of outcome: a certificate (or the
		// LOCALCOMMITs answering it) can be lost in transit, and only
		// Finish retires this timer.
		if c.tryCommitCert(ctx, p) {
			c.Count.SlowTimeouts++
		}
		c.Arm(ctx, p, engine.SlowTimer, c.Cfg.SlowPathTimeout)
	case engine.RetryTimer:
		c.Retry(ctx, p)
	}
}

func (c *Client) handleSpecResponse(ctx proc.Context, m *SpecResponse) {
	p, ok := c.Pending[m.Timestamp]
	if !ok || m.Client != c.Cfg.ID || !c.Verified(ctx, m.Replica, m, m.Sig) || m.CmdDigest != p.Digest {
		return
	}
	if m.View > c.view {
		c.view = m.View // learn the new primary
	}
	p.responses[m.Replica] = m

	// Fast path: 3f+1 matching speculative responses.
	matching := c.matchingSet(p)
	if len(matching) >= fastQuorum(c.Cfg.N) {
		c.Count.FastDecisions++
		c.Finish(ctx, p, matching[0].Result, true)
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
		proc.Broadcast(ctx, c.Replicas, p.cert)
		return false
	}
	matching := c.matchingSet(p)
	if len(matching) < commQuorum(c.Cfg.N) {
		return false
	}
	cert := matching[:commQuorum(c.Cfg.N)]
	cc := &CommitCert{
		Client:    c.Cfg.ID,
		Timestamp: p.Cmd.Timestamp,
		Seq:       cert[0].Seq,
		CmdDigest: cert[0].CmdDigest,
		Cert:      cert,
	}
	proc.Broadcast(ctx, c.Replicas, cc)
	p.certSent = true
	p.certSeq = cc.Seq
	p.cert = cc
	c.Count.SlowDecisions++
	return true
}

func (c *Client) handleLocalCommit(ctx proc.Context, m *LocalCommit) {
	var p *pendingReq
	for _, cand := range c.Pending {
		if cand.certSent && cand.certSeq == m.Seq && cand.Digest == m.CmdDigest {
			p = cand
			break
		}
	}
	if p == nil || !c.Verified(ctx, m.Replica, m, m.Sig) {
		return
	}
	p.locals[m.Replica] = m
	if len(p.locals) >= commQuorum(c.Cfg.N) {
		c.Finish(ctx, p, m.Result, false)
	}
}
