package core

import (
	"fmt"
	"sort"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// ClientConfig configures one ezBFT client: Leader is the replica it sends
// requests to (its closest), SlowPathTimeout the paper's step-4.2 timer and
// RetryTimeout its step-4.3 timer.
type ClientConfig = engine.ClientConfig

// ClientStats exposes the client core's counters.
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
	engine.Pending
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
	engine.ClientCore[pendingReq, *pendingReq]
	// watch knows which replicas have stopped answering (see "Client timers"
	// in the package comment); all is every replica.
	watch engine.ReplyWatch
	all   engine.ReplicaSet
}

var _ engine.Client = (*Client)(nil)

// NewClient constructs a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.N > maxSigners {
		return nil, fmt.Errorf("%w: N=%d", ErrBadClusterSize, cfg.N)
	}
	c := &Client{}
	if err := c.Setup("core", cfg, c, true); err != nil {
		return nil, err
	}
	c.watch = engine.NewReplyWatch(cfg.N, c.Cfg.SlowPathTimeout)
	c.all = engine.AllReplicas(cfg.N)
	return c, nil
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() ClientStats { return c.Count }

// Submit implements workload.Submitter: stamp the command, sign the
// REQUEST, send it to the nearest replica that is answering, and arm the
// slow-path and retry timers. It returns the timestamp assigned to the
// command.
func (c *Client) Submit(ctx proc.Context, cmd types.Command) uint64 {
	p := &pendingReq{leader: c.leader()}
	p.groups = p.groupBuf[:0]
	return c.Issue(ctx, p, &Request{Cmd: cmd, Orig: noOrig}, p.leader)
}

// leader returns the replica to send a new request to: the first at or after
// the client's own leader, in id order, that is not marked silent. Any
// replica can order a request, and one that has stopped answering would only
// be found out again by the retry timer.
func (c *Client) leader() types.ReplicaID {
	silent := c.watch.Silent()
	for i := 0; i < c.Cfg.N; i++ {
		if id := types.ReplicaID((int(c.Cfg.Leader) + i) % c.Cfg.N); !silent.Has(id) {
			return id
		}
	}
	return c.Cfg.Leader
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
	switch kind, p := c.Expired(ctx, id); kind {
	case engine.SlowTimer:
		waited := !p.commitSent
		if !c.trySlowPath(ctx, p) {
			// Not enough replies yet; check again after another period.
			c.Arm(ctx, p, engine.SlowTimer, c.Cfg.SlowPathTimeout)
		} else if waited {
			// The timer, not a reply, sent this COMMIT: the request waited
			// for replicas that did not answer in time.
			c.Count.SlowTimeouts++
			c.watch.Expired(c.all&^p.answered, p.Issued, ctx.Now())
		}
	case engine.RetryTimer:
		c.retry(ctx, p)
	}
}

// handleSpecReply processes step 4: collect replies, check for proofs of
// misbehaviour, and decide fast path on 3f+1 matching replies.
func (c *Client) handleSpecReply(ctx proc.Context, m *SpecReply) {
	p, ok := c.Pending[m.Timestamp]
	if !ok || m.Client != c.Cfg.ID || m.Replica < 0 || int(m.Replica) >= c.Cfg.N ||
		!c.Verified(ctx, m.Replica, m, m.Sig) || m.CmdDigest != p.Digest {
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
	if !p.pomSent && m.SO != nil && m.SO.OrdersCommand(p.Cmd) {
		c.checkPOM(ctx, p, m)
	}

	p.answered |= 1 << m.Replica
	key := keyOf(m)
	group := p.group(key)
	if group == nil {
		p.groups = append(p.groups, replyGroup{key: key, replies: make([]*SpecReply, c.Cfg.N)})
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
	if !c.Cfg.DisableFastPath && group.count == FastQuorum(c.Cfg.N) && group.allMatch() {
		c.finishFast(ctx, p, m.Inst, group)
		return
	}
	// If every replica worth waiting for has answered and no fast decision
	// is possible, take the slow path immediately rather than waiting for
	// the timer. A silent replica's reply still counts if it comes: above
	// when it completes a fast quorum, after the COMMIT included.
	if missing := c.all &^ p.answered; !p.commitSent && missing&^c.watch.Silent() == 0 {
		if c.trySlowPath(ctx, p) && missing != 0 {
			c.Count.SilentSkips++
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
			if !prev.SO.OrdersCommand(p.Cmd) {
				continue // the earlier SPECORDER does not order this request
			}
			// Same owner ordered the same request at two instances; verify
			// both signatures before accusing (pre-marked ones are already
			// proven).
			owner := m.SO.Owner.OwnerOf(c.Cfg.N)
			c.Cfg.Costs.ChargeVerify(ctx, 2)
			if !m.SO.SigVerified() && engine.VerifyBody(c.Cfg.Auth, types.ReplicaNode(owner), m.SO, m.SO.Sig) != nil {
				return
			}
			if !prev.SO.SigVerified() && engine.VerifyBody(c.Cfg.Auth, types.ReplicaNode(owner), prev.SO, prev.SO.Sig) != nil {
				return
			}
			pom := &POM{Suspect: owner, Owner: m.SO.Owner, Client: c.Cfg.ID, A: prev.SO, B: m.SO}
			proc.Broadcast(ctx, c.Replicas, pom)
			p.pomSent = true
			c.Count.POMsSent++
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
		req := &SOFetch{Client: c.Cfg.ID, Inst: key.inst, Ref: key.batch}
		req.Sig = c.Sign(ctx, req)
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
	for _, cand := range c.Pending {
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
	if so.CmdDigest != BatchDigest(so.CmdDigests()) || !so.OrdersCommand(p.Cmd) {
		return
	}
	if !c.Verified(ctx, so.Owner.OwnerOf(c.Cfg.N), so, so.Sig) {
		return
	}
	so.MarkSigVerified()
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
		if a == nil || !a.OrdersCommand(p.Cmd) {
			continue
		}
		for j := i + 1; j < len(groups); j++ {
			b := c.soForGroup(p, groups[j])
			if b == nil || a.Owner != b.Owner || !b.OrdersCommand(p.Cmd) {
				continue
			}
			if a.Inst == b.Inst && a.CmdDigest == b.CmdDigest {
				continue // the same proposal
			}
			owner := a.Owner.OwnerOf(c.Cfg.N)
			c.Cfg.Costs.ChargeVerify(ctx, 2)
			if !a.SigVerified() && engine.VerifyBody(c.Cfg.Auth, types.ReplicaNode(owner), a, a.Sig) != nil {
				continue
			}
			if !b.SigVerified() && engine.VerifyBody(c.Cfg.Auth, types.ReplicaNode(owner), b, b.Sig) != nil {
				continue
			}
			pom := &POM{Suspect: owner, Owner: a.Owner, Client: c.Cfg.ID, A: a, B: b}
			proc.Broadcast(ctx, c.Replicas, pom)
			p.pomSent = true
			c.Count.POMsSent++
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
func (c *Client) finishFast(ctx proc.Context, p *pendingReq, inst types.InstanceID, group *replyGroup) {
	first := group.lowest()
	sigs := make([]ReplySig, 0, group.count-1)
	for _, sr := range group.replies {
		if sr != nil && sr != first {
			sigs = append(sigs, ReplySig{Replica: sr.Replica, Sig: sr.Sig})
		}
	}
	cf := &CommitFast{Client: c.Cfg.ID, Inst: inst, Cert: []*SpecReply{first}, Sigs: sigs}
	proc.Broadcast(ctx, c.Replicas, cf)
	c.Count.FastDecisions++
	c.finish(ctx, p, first.Result, true)
}

// trySlowPath implements step 4.2: with at least 2f+1 replies for one
// instance, combine their dependency sets, take the maximum sequence
// number, and broadcast the signed COMMIT — in the compact form when the
// replies agree. Reports whether the commit was sent (or the request is
// already done).
func (c *Client) trySlowPath(ctx proc.Context, p *pendingReq) bool {
	if p.commitSent {
		return true
	}
	group := c.bestGroup(p)
	if group == nil || group.count < SlowQuorum(c.Cfg.N) {
		return false
	}
	inst := group.key.inst
	// Prefer the command-leader's known slow quorum (the paper's
	// "Nitpick"); fall back to the lowest 2f+1 replica IDs that answered.
	leader := group.lowest().Owner.OwnerOf(c.Cfg.N)
	chosen := make([]*SpecReply, 0, SlowQuorum(c.Cfg.N))
	known := SlowQuorumMembers(leader, c.Cfg.N)
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
			if len(chosen) == SlowQuorum(c.Cfg.N) {
				break
			}
		}
	}

	deps, seq := certDecision(chosen)
	commit := &Commit{
		Client:    c.Cfg.ID,
		Timestamp: p.Cmd.Timestamp,
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
	commit.Sig = c.Sign(ctx, commit)
	proc.Broadcast(ctx, c.Replicas, commit)
	p.commitSent = true
	p.commitInst = inst
	c.Count.SlowDecisions++
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
	// One batch instance can order several of this client's requests, each
	// answered by its own COMMITREPLY: the digest tells them apart.
	var p *pendingReq
	for _, cand := range c.Pending {
		if cand.commitSent && cand.commitInst == m.Inst && cand.Digest == m.CmdDigest {
			p = cand
			break
		}
	}
	if p == nil || m.Replica < 0 || int(m.Replica) >= c.Cfg.N || !c.Verified(ctx, m.Replica, m, m.Sig) {
		return
	}
	if p.commitReplies == nil {
		p.commitReplies = make([]*CommitReply, c.Cfg.N)
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
	if matching >= SlowQuorum(c.Cfg.N) {
		c.finish(ctx, p, m.Result, false)
	}
}

// retry implements step 4.3: too few replies within the timeout, so the
// client re-broadcasts the request to all replicas, naming the original
// recipient.
func (c *Client) retry(ctx proc.Context, p *pendingReq) {
	p.Retries++
	c.Count.Retries++
	// A COMMIT sent just before an owner change may have been dropped by
	// suspended replicas; allow a fresh slow-path decision on whatever
	// groups form after the retry.
	p.commitSent = false
	clear(p.commitReplies)

	// Broadcast the request naming the original leader: replicas that
	// already spec-ordered it resend their cached replies, and the rest
	// forward RESENDREQs that (on timeout) trigger an owner change.
	retryReq := &Request{Cmd: p.Cmd, Orig: p.leader}
	retryReq.Sig = c.Sign(ctx, retryReq)
	proc.Broadcast(ctx, c.Replicas, retryReq)
	// Additionally rotate to the next replica as a fresh command-leader so
	// the request gets ordered even if the original leader never did. At
	// most one replica adopts per retry round: orphan duplicates would
	// otherwise interfere with each other across instance spaces.
	rotated := types.ReplicaID((int(p.leader) + p.Retries) % c.Cfg.N)
	direct := &Request{Cmd: p.Cmd, Orig: noOrig}
	direct.Sig = c.Sign(ctx, direct)
	ctx.Send(types.ReplicaNode(rotated), direct)

	// Capped exponential backoff with deterministic jitter on subsequent
	// retries (proc.Backoff). The first retry timer (armed at Submit) is
	// un-jittered, so default behavior up to and including the first
	// retry is byte-identical.
	c.Arm(ctx, p, engine.RetryTimer, proc.Backoff(ctx, c.Cfg.RetryTimeout, p.Retries))
	c.Arm(ctx, p, engine.SlowTimer, c.Cfg.SlowPathTimeout)
}

// finish completes a request. The ReplyWatch learns who answered first: the
// driver may submit the next request from Finish, and that request's
// choice of leader reads the watch.
func (c *Client) finish(ctx proc.Context, p *pendingReq, res types.Result, fast bool) {
	c.watch.Decided(p.answered, ctx.Now())
	c.Finish(ctx, p, res, fast)
}
