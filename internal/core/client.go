package core

import (
	"errors"
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

// Client-side defaults; experiments tune these to their topology.
const (
	DefaultSlowPathTimeout = 400 * time.Millisecond
	DefaultRetryTimeout    = 4 * time.Second
)

// ErrNilDriver reports a client configured without a workload driver.
var ErrNilDriver = errors.New("core: client driver must not be nil")

// ClientConfig configures one ezBFT client.
type ClientConfig struct {
	// ID is this client's identifier.
	ID types.ClientID
	// N is the cluster size (3f+1).
	N int
	// Leader is the replica this client sends requests to (its closest).
	Leader types.ReplicaID
	// Auth signs requests and verifies replica replies.
	Auth auth.Authenticator
	// Costs holds virtual processing costs for simulation.
	Costs proc.Costs
	// Driver decides what to submit and receives completions.
	Driver workload.Driver
	// SlowPathTimeout is the paper's step-4.2 timer: how long to wait for
	// matching replies before combining a 2f+1 quorum's dependencies.
	SlowPathTimeout time.Duration
	// RetryTimeout is the paper's step-4.3 timer: how long to wait for
	// 2f+1 replies before re-broadcasting the request to all replicas.
	RetryTimeout time.Duration
	// DisableFastPath makes the client ignore fast-path opportunities and
	// always commit through the slow path. Ablation only: it quantifies
	// what speculative execution plus the 3f+1 fast quorum buy (DESIGN.md
	// §5); never enable it in production use.
	DisableFastPath bool
}

func (c *ClientConfig) validate() error {
	if c.N < 4 || (c.N-1)%3 != 0 || c.N > maxSigners {
		return fmt.Errorf("%w: N=%d", ErrBadClusterSize, c.N)
	}
	if c.Leader < 0 || int(c.Leader) >= c.N {
		return fmt.Errorf("%w: leader %d", ErrBadReplicaID, c.Leader)
	}
	if c.Auth == nil {
		return ErrNilAuth
	}
	if c.Driver == nil {
		return ErrNilDriver
	}
	if c.SlowPathTimeout <= 0 {
		c.SlowPathTimeout = DefaultSlowPathTimeout
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = DefaultRetryTimeout
	}
	return nil
}

// ClientStats exposes client-side protocol counters.
type ClientStats = engine.ClientStats

// replyKey identifies one proposal a SPECREPLY vouches for: the instance
// plus the batch digest of the proposal. Grouping by both keeps replies
// built from different batches apart — an equivocating leader may sign
// different batches for the same instance, and combining their replies
// (fast-path matching or slow-path dependency union) must never mix
// proposals. Unbatched SPECORDERs carry the command digest there, so for
// them this is exactly the pre-batching per-instance grouping.
type replyKey struct {
	inst  types.InstanceID
	batch types.Digest
}

// keyOf returns the grouping key for a validated reply: the embedded
// SPECORDER's batch digest when present, the reply's signed SORef for
// evidence-slimmed batched replies.
func keyOf(m *SpecReply) replyKey {
	return replyKey{inst: m.Inst, batch: m.ProposalRef()}
}

// Less orders reply keys deterministically.
func (k replyKey) Less(o replyKey) bool {
	if k.inst != o.inst {
		return k.inst.Less(o.inst)
	}
	for i := range k.batch {
		if k.batch[i] != o.batch[i] {
			return k.batch[i] < o.batch[i]
		}
	}
	return false
}

// replyGroup holds the SPECREPLYs that vouch for one proposal, indexed by
// sender: replies[i] is replica i's latest reply for it, nil if it has sent
// none. Ranging over it visits the senders in replica-id order.
type replyGroup struct {
	key     replyKey
	replies []*SpecReply
	count   int // non-nil elements of replies
}

// lowest returns the reply of the lowest-numbered replica in the group (the
// deterministic reference for comparisons), nil for an empty group.
func (g *replyGroup) lowest() *SpecReply {
	for _, sr := range g.replies {
		if sr != nil {
			return sr
		}
	}
	return nil
}

// pendingReq tracks one outstanding request.
type pendingReq struct {
	cmd    types.Command
	digest types.Digest // cmd.Digest(), computed once per request
	req    *Request
	issued time.Duration
	// leader is the replica the request was sent to: the client's own
	// leader unless that one is marked silent.
	leader types.ReplicaID
	// groups holds the collected SPECREPLYs, one group per proposal they
	// vouch for, in order of first arrival. A faulty leader may cause several
	// proposals per request; the usual single group lives in groupBuf, so it
	// costs no allocation of its own.
	groups   []replyGroup
	groupBuf [1]replyGroup
	// answered holds the replicas with a verified reply in any group.
	answered engine.ReplicaSet
	pomSent  bool
	retries  int
	timedOut bool

	// Fetch-on-conflict (evidence slimming): fetched holds full SPECORDERs
	// retrieved via SOFETCH for proposals whose replies carried only the
	// signed SORef digest; fetchReqs marks proposals already asked about.
	fetched   map[replyKey]*SpecOrder
	fetchReqs map[replyKey]bool

	commitSent bool
	commitInst types.InstanceID
	// commitReplies is indexed by sender like replyGroup.replies; nil until
	// the first COMMITREPLY arrives (slow path only).
	commitReplies []*CommitReply
}

// group returns the group collecting replies for key, nil if there is none.
func (p *pendingReq) group(key replyKey) *replyGroup {
	for i := range p.groups {
		if p.groups[i].key == key {
			return &p.groups[i]
		}
	}
	return nil
}

// Client is an ezBFT client: it actively participates in consensus by
// collecting speculative replies, deciding fast versus slow path, combining
// dependency sets, detecting command-leader equivocation, and enforcing the
// final order (paper §III: "the client is actively involved in the
// consensus process"). It implements proc.Process.
type Client struct {
	cfg ClientConfig
	n   int
	f   int

	nextTS  uint64
	pending map[uint64]*pendingReq
	stats   ClientStats
	// watch knows which replicas have stopped answering (see "Client timers"
	// in the package comment); all is every replica.
	watch engine.ReplyWatch
	all   engine.ReplicaSet

	// replicas lists every replica's address, precomputed for broadcasts.
	replicas []types.NodeID
}

var (
	_ proc.Process       = (*Client)(nil)
	_ workload.Submitter = (*Client)(nil)
)

// timer id layout: ts*4 + kind (kinds below); driver timers pass through.
const (
	timerKindSlow  = 1
	timerKindRetry = 2
)

// NewClient constructs a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     cfg,
		n:       cfg.N,
		f:       F(cfg.N),
		pending: make(map[uint64]*pendingReq),
		watch:   engine.NewReplyWatch(cfg.N, cfg.SlowPathTimeout),
		all:     engine.AllReplicas(cfg.N),
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
func (c *Client) Init(ctx proc.Context) {
	c.cfg.Driver.Start(ctx, c)
}

// Submit implements workload.Submitter: stamp the command, sign the
// REQUEST, send it to the nearest replica that is answering, and arm the
// slow-path and retry timers. It returns the timestamp assigned to the
// command.
func (c *Client) Submit(ctx proc.Context, cmd types.Command) uint64 {
	c.nextTS++
	ts := c.nextTS
	cmd.Client = c.cfg.ID
	cmd.Timestamp = ts

	req := &Request{Cmd: cmd, Orig: noOrig}
	c.cfg.Costs.ChargeSign(ctx)
	req.Sig = engine.SignBody(c.cfg.Auth, req)

	p := &pendingReq{
		cmd:    cmd,
		digest: cmd.Digest(),
		req:    req,
		issued: ctx.Now(),
		leader: c.leader(),
	}
	p.groups = p.groupBuf[:0]
	c.pending[ts] = p
	c.stats.Submitted++
	ctx.Send(types.ReplicaNode(p.leader), req)
	ctx.SetTimer(proc.TimerID(ts*4+timerKindSlow), c.cfg.SlowPathTimeout)
	ctx.SetTimer(proc.TimerID(ts*4+timerKindRetry), c.cfg.RetryTimeout)
	return ts
}

// leader returns the replica to send a new request to: the first at or after
// the client's own leader, in id order, that is not marked silent. Any
// replica can order a request, and one that has stopped answering would only
// be found out again by the retry timer.
func (c *Client) leader() types.ReplicaID {
	silent := c.watch.Silent()
	for i := 0; i < c.n; i++ {
		if id := types.ReplicaID((int(c.cfg.Leader) + i) % c.n); !silent.Has(id) {
			return id
		}
	}
	return c.cfg.Leader
}

// Receive implements proc.Process.
func (c *Client) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	switch m := msg.(type) {
	case *SpecReply:
		c.handleSpecReply(ctx, m)
	case *CommitReply:
		c.handleCommitReply(ctx, m)
	case *SpecOrder:
		c.handleFetchedSO(ctx, m)
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
	case timerKindSlow:
		waited := !p.commitSent
		if !c.trySlowPath(ctx, ts, p) {
			// Not enough replies yet; check again after another period.
			ctx.SetTimer(id, c.cfg.SlowPathTimeout)
		} else if waited {
			// The timer, not a reply, sent this COMMIT: the request waited
			// for replicas that did not answer in time.
			c.stats.SlowTimeouts++
			c.watch.Expired(c.all&^p.answered, p.issued, ctx.Now())
		}
	case timerKindRetry:
		c.retry(ctx, ts, p)
	}
}

// handleSpecReply processes step 4: collect replies, check for proofs of
// misbehaviour, and decide fast path on 3f+1 matching replies.
func (c *Client) handleSpecReply(ctx proc.Context, m *SpecReply) {
	p, ok := c.pending[m.Timestamp]
	if !ok || m.Client != c.cfg.ID || m.Replica < 0 || int(m.Replica) >= c.n {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			return
		}
	}
	if m.CmdDigest != p.digest {
		return
	}
	if m.SO != nil && m.Batched && m.SO.CmdDigest != m.SORef {
		// The signed proposal reference must name the embedded proposal;
		// a mismatch is a forgery, not evidence of anything.
		return
	}

	// Step 4.4: an embedded SPECORDER that disagrees with a previously seen
	// one on the instance number proves command-leader equivocation. Only
	// SPECORDERs that actually order this request are compared — a batched
	// SPECORDER proves equivocation only if our command is in the batch.
	if !p.pomSent && m.SO != nil && m.SO.OrdersCommand(p.cmd) {
		c.checkPOM(ctx, p, m)
	}

	p.answered |= 1 << m.Replica
	key := keyOf(m)
	group := p.group(key)
	if group == nil {
		p.groups = append(p.groups, replyGroup{key: key, replies: make([]*SpecReply, c.n)})
		group = &p.groups[len(p.groups)-1]
	}
	if group.replies[m.Replica] == nil {
		group.count++
	}
	group.replies[m.Replica] = m

	// Conflicting proposals for one request are equivocation evidence, but
	// a POM needs the full SPECORDERs; fetch the ones evidence slimming
	// withheld (step 4.4 restored for BatchIdx > 0 clients).
	if !p.pomSent && len(p.groups) > 1 {
		c.fetchConflictEvidence(ctx, p)
	}

	// Step 4.1: 3f+1 matching responses constitute a fast decision.
	if !c.cfg.DisableFastPath && group.count == FastQuorum(c.n) && group.allMatch() {
		c.finishFast(ctx, m.Timestamp, p, m.Inst, group)
		return
	}
	// If every replica worth waiting for has answered and no fast decision
	// is possible, take the slow path immediately rather than waiting for
	// the timer. A silent replica's reply still counts if it comes: above
	// when it completes a fast quorum, after the COMMIT included.
	if missing := c.all &^ p.answered; !p.commitSent && missing&^c.watch.Silent() == 0 {
		if c.trySlowPath(ctx, m.Timestamp, p) && missing != 0 {
			c.stats.SilentSkips++
		}
	}
}

// checkPOM compares the new reply's embedded SPECORDER against previously
// collected ones; on a conflict it broadcasts the proof of misbehaviour.
func (c *Client) checkPOM(ctx proc.Context, p *pendingReq, m *SpecReply) {
	for i := range p.groups {
		for _, prev := range p.groups[i].replies {
			if prev == nil || prev.SO == nil || prev.SO.Owner != m.SO.Owner {
				continue
			}
			if prev.SO.Inst == m.SO.Inst && prev.SO.CmdDigest == m.SO.CmdDigest {
				continue // the same proposal, no conflict
			}
			// Remaining cases are equivocation evidence: the same request
			// ordered at two instances, or — with batching — two different
			// batches signed for the same instance.
			if !prev.SO.OrdersCommand(p.cmd) {
				continue // the earlier SPECORDER does not order this request
			}
			// Same owner ordered the same request at two instances; verify
			// both signatures before accusing (pre-marked ones are already
			// proven).
			owner := m.SO.Owner.OwnerOf(c.n)
			c.cfg.Costs.ChargeVerify(ctx, 2)
			if !m.SO.SigVerified() && engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(owner), m.SO, m.SO.Sig) != nil {
				return
			}
			if !prev.SO.SigVerified() && engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(owner), prev.SO, prev.SO.Sig) != nil {
				return
			}
			pom := &POM{Suspect: owner, Owner: m.SO.Owner, Client: c.cfg.ID, A: prev.SO, B: m.SO}
			proc.Broadcast(ctx, c.replicas, pom)
			p.pomSent = true
			c.stats.POMsSent++
			return
		}
	}
}

// fetchConflictEvidence runs when replies for one request reference more
// than one proposal. Every group's proposal provably orders this request
// (the reply's signed body binds the command digest, batch position, and
// SORef), so two groups are equivocation by the same owner — but only full
// SPECORDERs constitute a POM. Groups whose replies embedded the SPECORDER
// already have one; for evidence-slimmed groups the client asks a vouching
// replica for the full proposal behind the signed SORef (SOFETCH), then
// assembles the POM when both sides are in hand.
func (c *Client) fetchConflictEvidence(ctx proc.Context, p *pendingReq) {
	for i := range p.groups {
		group := &p.groups[i]
		key := group.key
		if c.soForGroup(p, group) != nil || p.fetchReqs[key] {
			continue
		}
		if p.fetchReqs == nil {
			p.fetchReqs = make(map[replyKey]bool, 2)
		}
		p.fetchReqs[key] = true
		req := &SOFetch{Client: c.cfg.ID, Inst: key.inst, Ref: key.batch}
		c.cfg.Costs.ChargeSign(ctx)
		req.Sig = engine.SignBody(c.cfg.Auth, req)
		// Ask the lowest-id replica that vouched for the proposal; it holds
		// the SPECORDER (it signed a reply derived from it).
		ctx.Send(types.ReplicaNode(group.lowest().Replica), req)
	}
	c.tryPOMFromEvidence(ctx, p)
}

// soForGroup returns the full SPECORDER known for a proposal group: an
// embedded one from any reply, or a fetched one.
func (c *Client) soForGroup(p *pendingReq, group *replyGroup) *SpecOrder {
	for _, sr := range group.replies {
		if sr != nil && sr.SO != nil {
			return sr.SO
		}
	}
	return p.fetched[group.key]
}

// handleFetchedSO processes a replica's answer to an SOFETCH: validate the
// proposal against the signed SORef it was fetched for, then try to build
// the proof of misbehaviour.
func (c *Client) handleFetchedSO(ctx proc.Context, so *SpecOrder) {
	key := replyKey{inst: so.Inst, batch: so.CmdDigest}
	var p *pendingReq
	for _, cand := range c.pending {
		if cand.fetchReqs[key] {
			p = cand
			break
		}
	}
	if p == nil || p.pomSent || p.fetched[key] != nil {
		return
	}
	// The proposal must bind its signed digest to its embedded requests and
	// actually order this client's command, and the owner signature must
	// verify — the same checks a replica applies before trusting a
	// SPECORDER that arrived outside its own frame.
	if so.CmdDigest != BatchDigest(so.CmdDigests()) || !so.OrdersCommand(p.cmd) {
		return
	}
	if !so.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(so.Owner.OwnerOf(c.n)), so, so.Sig) != nil {
			return
		}
		so.MarkSigVerified()
	}
	if p.fetched == nil {
		p.fetched = make(map[replyKey]*SpecOrder, 2)
	}
	p.fetched[key] = so
	c.tryPOMFromEvidence(ctx, p)
}

// tryPOMFromEvidence broadcasts a POM once full SPECORDERs are known for
// two conflicting proposals signed by the same owner.
func (c *Client) tryPOMFromEvidence(ctx proc.Context, p *pendingReq) {
	if p.pomSent {
		return
	}
	// Deterministic pairing: groups in key order, whatever order they formed in.
	groups := make([]*replyGroup, len(p.groups))
	for i := range p.groups {
		groups[i] = &p.groups[i]
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key.Less(groups[j].key) })
	for i := 0; i < len(groups); i++ {
		a := c.soForGroup(p, groups[i])
		if a == nil || !a.OrdersCommand(p.cmd) {
			continue
		}
		for j := i + 1; j < len(groups); j++ {
			b := c.soForGroup(p, groups[j])
			if b == nil || a.Owner != b.Owner || !b.OrdersCommand(p.cmd) {
				continue
			}
			if a.Inst == b.Inst && a.CmdDigest == b.CmdDigest {
				continue // the same proposal
			}
			owner := a.Owner.OwnerOf(c.n)
			c.cfg.Costs.ChargeVerify(ctx, 2)
			if !a.SigVerified() && engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(owner), a, a.Sig) != nil {
				continue
			}
			if !b.SigVerified() && engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(owner), b, b.Sig) != nil {
				continue
			}
			pom := &POM{Suspect: owner, Owner: a.Owner, Client: c.cfg.ID, A: a, B: b}
			proc.Broadcast(ctx, c.replicas, pom)
			p.pomSent = true
			c.stats.POMsSent++
			return
		}
	}
}

// allMatch reports whether every reply in the group matches (deterministic
// reference: the lowest replica ID).
func (g *replyGroup) allMatch() bool {
	ref := g.lowest()
	for _, sr := range g.replies {
		if sr != nil && !sr.Matches(ref) {
			return false
		}
	}
	return true
}

// agree reports whether a slow quorum's replies all match the first, so
// that its certificate takes the compact form.
func agree(chosen []*SpecReply) bool {
	for _, sr := range chosen[1:] {
		if !sr.Matches(chosen[0]) {
			return false
		}
	}
	return true
}

// finishFast completes a request on the fast path: return to the
// application, then asynchronously send COMMITFAST — the group's reference
// reply, neither copied nor written to (on the mesh and the simulator it is
// the sender's own cached object), and the other repliers' signatures.
func (c *Client) finishFast(ctx proc.Context, ts uint64, p *pendingReq, inst types.InstanceID, group *replyGroup) {
	first := group.lowest()
	sigs := make([]ReplySig, 0, group.count-1)
	for _, sr := range group.replies {
		if sr != nil && sr != first {
			sigs = append(sigs, ReplySig{Replica: sr.Replica, Sig: sr.Sig})
		}
	}
	cf := &CommitFast{Client: c.cfg.ID, Inst: inst, Cert: []*SpecReply{first}, Sigs: sigs}
	proc.Broadcast(ctx, c.replicas, cf)
	c.stats.FastDecisions++
	c.finish(ctx, ts, p, first.Result, true)
}

// trySlowPath implements step 4.2: with at least 2f+1 replies for one
// instance, combine their dependency sets, take the maximum sequence
// number, and broadcast the signed COMMIT — in the compact form when the
// replies agree. Reports whether the commit was sent (or the request is
// already done).
func (c *Client) trySlowPath(ctx proc.Context, ts uint64, p *pendingReq) bool {
	if p.commitSent {
		return true
	}
	group := c.bestGroup(p)
	if group == nil || group.count < SlowQuorum(c.n) {
		return false
	}
	inst := group.key.inst
	// Prefer the command-leader's known slow quorum (the paper's
	// "Nitpick"); fall back to the lowest 2f+1 replica IDs that answered.
	leader := group.lowest().Owner.OwnerOf(c.n)
	chosen := make([]*SpecReply, 0, SlowQuorum(c.n))
	known := SlowQuorumMembers(leader, c.n)
	complete := true
	for _, rid := range known {
		sr := group.replies[rid]
		if sr == nil {
			complete = false
			break
		}
		chosen = append(chosen, sr)
	}
	if !complete {
		chosen = chosen[:0]
		for _, sr := range group.replies {
			if sr == nil {
				continue
			}
			chosen = append(chosen, sr)
			if len(chosen) == SlowQuorum(c.n) {
				break
			}
		}
	}

	deps, seq := certDecision(chosen)
	commit := &Commit{
		Client:    c.cfg.ID,
		Timestamp: ts,
		Inst:      inst,
		Deps:      deps,
		Seq:       seq,
		Cert:      chosen,
	}
	if agree(chosen) {
		// Replies that agree differ only in sender and signature: send the
		// first once, with the others' signatures over its body.
		commit.Cert = chosen[:1]
		commit.Sigs = make([]ReplySig, 0, len(chosen)-1)
		for _, sr := range chosen[1:] {
			commit.Sigs = append(commit.Sigs, ReplySig{Replica: sr.Replica, Sig: sr.Sig})
		}
	}
	c.cfg.Costs.ChargeSign(ctx)
	commit.Sig = engine.SignBody(c.cfg.Auth, commit)
	proc.Broadcast(ctx, c.replicas, commit)
	p.commitSent = true
	p.commitInst = inst
	c.stats.SlowDecisions++
	return true
}

// bestGroup returns the proposal with the most replies (ties broken by
// key order, for determinism). Replies for the same instance built from
// different batches live in different groups, so the combined quorum is
// always over one proposal.
func (c *Client) bestGroup(p *pendingReq) *replyGroup {
	var best *replyGroup
	for i := range p.groups {
		g := &p.groups[i]
		if best == nil || g.count > best.count || (g.count == best.count && g.key.Less(best.key)) {
			best = g
		}
	}
	return best
}

// handleCommitReply processes step 6.2: the request completes when 2f+1
// replicas report the same final-execution result.
func (c *Client) handleCommitReply(ctx proc.Context, m *CommitReply) {
	var (
		ts uint64
		p  *pendingReq
	)
	for candTS, cand := range c.pending {
		if cand.commitSent && cand.commitInst == m.Inst {
			ts, p = candTS, cand
			break
		}
	}
	if p == nil || m.Replica < 0 || int(m.Replica) >= c.n {
		return
	}
	if !m.SigVerified() {
		c.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(c.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			return
		}
	}
	if m.CmdDigest != p.digest {
		return
	}
	if p.commitReplies == nil {
		p.commitReplies = make([]*CommitReply, c.n)
	}
	p.commitReplies[m.Replica] = m

	// Count the replies reporting this reply's result: it is the only
	// result whose count this reply can have raised to the quorum.
	matching := 0
	for _, cr := range p.commitReplies {
		if cr != nil && cr.Result.Equal(m.Result) {
			matching++
		}
	}
	if matching >= SlowQuorum(c.n) {
		c.finish(ctx, ts, p, m.Result, false)
	}
}

// retry implements step 4.3: too few replies within the timeout, so the
// client re-broadcasts the request to all replicas, naming the original
// recipient.
func (c *Client) retry(ctx proc.Context, ts uint64, p *pendingReq) {
	p.retries++
	p.timedOut = true
	c.stats.Retries++
	// A COMMIT sent just before an owner change may have been dropped by
	// suspended replicas; allow a fresh slow-path decision on whatever
	// groups form after the retry.
	p.commitSent = false
	clear(p.commitReplies)

	// Broadcast the request naming the original leader: replicas that
	// already spec-ordered it resend their cached replies, and the rest
	// forward RESENDREQs that (on timeout) trigger an owner change.
	retryReq := &Request{Cmd: p.cmd, Orig: p.leader}
	c.cfg.Costs.ChargeSign(ctx)
	retryReq.Sig = engine.SignBody(c.cfg.Auth, retryReq)
	proc.Broadcast(ctx, c.replicas, retryReq)
	// Additionally rotate to the next replica as a fresh command-leader so
	// the request gets ordered even if the original leader never did. At
	// most one replica adopts per retry round: orphan duplicates would
	// otherwise interfere with each other across instance spaces.
	rotated := types.ReplicaID((int(p.leader) + p.retries) % c.n)
	direct := &Request{Cmd: p.cmd, Orig: noOrig}
	c.cfg.Costs.ChargeSign(ctx)
	direct.Sig = engine.SignBody(c.cfg.Auth, direct)
	ctx.Send(types.ReplicaNode(rotated), direct)

	// Capped exponential backoff with deterministic jitter on subsequent
	// retries (proc.Backoff). The first retry timer (armed at Submit) is
	// un-jittered, so default behavior up to and including the first
	// retry is byte-identical.
	ctx.SetTimer(proc.TimerID(ts*4+timerKindRetry), proc.Backoff(ctx, c.cfg.RetryTimeout, p.retries))
	ctx.SetTimer(proc.TimerID(ts*4+timerKindSlow), c.cfg.SlowPathTimeout)
}

// finish completes a request and notifies the driver.
func (c *Client) finish(ctx proc.Context, ts uint64, p *pendingReq, res types.Result, fast bool) {
	delete(c.pending, ts)
	ctx.CancelTimer(proc.TimerID(ts*4 + timerKindSlow))
	ctx.CancelTimer(proc.TimerID(ts*4 + timerKindRetry))
	c.stats.Completed++
	c.watch.Decided(p.answered, ctx.Now())
	c.cfg.Driver.Completed(ctx, c, workload.Completion{
		Cmd:      p.cmd,
		Result:   res,
		Latency:  ctx.Now() - p.issued,
		At:       ctx.Now(),
		FastPath: fast,
	})
}
