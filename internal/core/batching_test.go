package core

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// --- wire format ---

func sampleBatchSpecOrder() *SpecOrder {
	reqA := sampleRequest()
	reqB := &Request{
		Cmd: types.Command{
			Client: 4, Timestamp: 2, Op: types.OpIncr, Key: "k2",
		},
		Orig: noOrig,
		Sig:  []byte{7, 7},
	}
	so := &SpecOrder{
		Owner:   5,
		Inst:    types.InstanceID{Space: 1, Slot: 9},
		Deps:    types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 4}),
		Seq:     11,
		LogHash: types.Digest{1},
		Req:     *reqA,
		Batch:   []Request{*reqB},
		Sig:     []byte{9, 9},
	}
	so.CmdDigest = BatchDigest(so.CmdDigests())
	return so
}

func sampleBatchSpecReply(idx uint32) *SpecReply {
	so := sampleBatchSpecOrder()
	sr := &SpecReply{
		Owner:     5,
		Inst:      so.Inst,
		Deps:      types.NewInstanceSet(types.InstanceID{Space: 2, Slot: 1}),
		Seq:       12,
		CmdDigest: so.ReqAt(int(idx)).Cmd.Digest(),
		Client:    so.ReqAt(int(idx)).Cmd.Client,
		Timestamp: so.ReqAt(int(idx)).Cmd.Timestamp,
		Replica:   2,
		Result:    types.Result{OK: true, Value: []byte("out")},
		Batched:   true,
		BatchIdx:  idx,
		SORef:     so.CmdDigest,
		Sig:       []byte{4},
	}
	if idx == 0 {
		// Evidence slimming: only the BatchIdx-0 reply embeds the proposal.
		sr.SO = so
	}
	return sr
}

// TestBatchedMessageRoundTrips pins the batched wire layouts (tags 21–25)
// the way TestMessageRoundTrips pins the unbatched ones.
func TestBatchedMessageRoundTrips(t *testing.T) {
	mixedPOM := &POM{Suspect: 1, Owner: 1, Client: 3, A: sampleBatchSpecOrder(), B: sampleSpecOrder()}
	batchedHist := &OwnerChange{
		Suspect: 1, NewOwner: 2, Replica: 3,
		History: []HistEntry{{
			Inst: types.InstanceID{Space: 1, Slot: 9}, Status: HistSpecOrdered,
			Cmd:   sampleBatchSpecOrder().Req.Cmd,
			Batch: []types.Command{sampleBatchSpecOrder().Batch[0].Cmd},
			Deps:  types.NewInstanceSet(), Seq: 1, Owner: 1, SO: sampleBatchSpecOrder(),
		}},
		Sig: []byte{6},
	}
	msgs := []codec.Message{
		sampleBatchSpecOrder(),
		sampleBatchSpecReply(0),
		sampleBatchSpecReply(1),
		&CommitFast{Client: 3, Inst: types.InstanceID{Space: 1, Slot: 9}, Cert: []*SpecReply{sampleBatchSpecReply(1)}},
		&Commit{
			Client: 3, Timestamp: 7, Inst: types.InstanceID{Space: 1, Slot: 9},
			Deps: types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 2}),
			Seq:  4, Cert: []*SpecReply{sampleBatchSpecReply(0)}, Sig: []byte{8},
		},
		mixedPOM,
		batchedHist,
	}
	for _, m := range msgs {
		out := roundTrip(t, m)
		if string(codec.Marshal(out)) != string(codec.Marshal(m)) {
			t.Errorf("%T (tag %d): round trip not byte-identical", m, m.Tag())
		}
	}
}

// TestUnbatchedTagsUnchanged pins that batch-of-one messages keep the
// original tags (and therefore the original byte layout): the unbatched
// protocol is byte-for-byte what it was before batching existed.
func TestUnbatchedTagsUnchanged(t *testing.T) {
	cases := []struct {
		msg  codec.Message
		want uint8
	}{
		{sampleSpecOrder(), tagSpecOrder},
		{sampleSpecReply(), tagSpecReply},
		{&CommitFast{Cert: []*SpecReply{sampleSpecReply()}}, tagCommitFast},
		{&Commit{Cert: []*SpecReply{sampleSpecReply()}}, tagCommit},
		{&POM{A: sampleSpecOrder(), B: sampleSpecOrder()}, tagPOM},
		{sampleBatchSpecOrder(), tagSpecOrderBatch},
		{sampleBatchSpecReply(0), tagSpecReplyBatch},
	}
	for _, tc := range cases {
		if got := tc.msg.Tag(); got != tc.want {
			t.Errorf("%T: tag %d, want %d", tc.msg, got, tc.want)
		}
	}
}

// TestBatchDigestSemantics: a batch of one digests to the command's own
// digest (the pre-batching d = H(m)); larger batches bind every command and
// its position.
func TestBatchDigestSemantics(t *testing.T) {
	a := putCmd("a", "1").Digest()
	b := putCmd("b", "2").Digest()
	if BatchDigest([]types.Digest{a}) != a {
		t.Fatal("batch of one must digest to the command digest")
	}
	if BatchDigest([]types.Digest{a, b}) == BatchDigest([]types.Digest{b, a}) {
		t.Fatal("batch digest must bind command positions")
	}
	if BatchDigest([]types.Digest{a, b}) == a || BatchDigest([]types.Digest{a, b}) == b {
		t.Fatal("batch digest must differ from member digests")
	}
}

// TestSignedBodyCoversBatchIdx: replies for different commands of one batch
// must not be interchangeable.
func TestSignedBodyCoversBatchIdx(t *testing.T) {
	r0 := sampleBatchSpecReply(0)
	r1 := sampleBatchSpecReply(0)
	r1.BatchIdx = 1
	if signedBody(r0) == signedBody(r1) {
		t.Fatal("batch index not covered by the reply signature")
	}
}

// --- protocol behaviour ---

// batchScripts builds one single-command script per client, all INCRs on
// per-client keys (so dependencies stay empty and the fast path is
// reachable).
func batchScripts(clients int) [][]types.Command {
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		scripts[c] = []types.Command{putCmd(fmt.Sprintf("bk%d", c), fmt.Sprintf("v%d", c))}
	}
	return scripts
}

// TestBatchingFastPath: eight clients at one leader with BatchSize 4 all
// commit on the fast path, and the leader provably coalesced them — fewer
// instances than commands, one SPECORDER signature per batch.
func TestBatchingFastPath(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 4
	opts.batchDelay = 5 * time.Millisecond
	const clients = 8
	leaders := make([]types.ReplicaID, clients)
	tc := newTestCluster(t, opts, leaders, batchScripts(clients))
	if !tc.run(10 * time.Second) {
		t.Fatal("commands did not complete")
	}
	tc.rt.Run(tc.rt.Now() + time.Second)

	r0 := tc.replicas[0]
	instances := r0.nextSlot - 1
	if instances >= clients {
		t.Fatalf("no batching: %d instances for %d commands", instances, clients)
	}
	if got := r0.Stats().Ordered; got != clients {
		t.Fatalf("leader ordered %d commands, want %d", got, clients)
	}
	for i, d := range tc.drivers {
		if len(d.Results) != 1 || !d.Results[0].FastPath {
			t.Fatalf("client %d: results %+v", i, d.Results)
		}
	}
	// Every replica executed every command.
	for _, r := range tc.replicas {
		if got := r.Stats().FinalExecutions; got != clients {
			t.Fatalf("%v: %d final executions, want %d", r.cfg.Self, got, clients)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestBatchingContention: batched interfering commands (all clients hammer
// one key) stay consistent and converge across replicas.
func TestBatchingContention(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 3
	opts.batchDelay = 5 * time.Millisecond
	const clients = 6
	// Clients split across two leaders, all writing the hot key.
	leaders := make([]types.ReplicaID, clients)
	scripts := make([][]types.Command, clients)
	for c := 0; c < clients; c++ {
		if c >= clients/2 {
			leaders[c] = 3
		}
		scripts[c] = []types.Command{putCmd("hot", fmt.Sprintf("c%d", c)), incrCmd("ctr")}
	}
	tc := newTestCluster(t, opts, leaders, scripts)
	if !tc.run(20 * time.Second) {
		t.Fatal("commands did not complete")
	}
	tc.rt.Run(tc.rt.Now() + time.Second)
	for _, r := range tc.correctReplicas() {
		v, ok := tc.apps[r.cfg.Self].Get("ctr")
		if !ok || kvstoreCounter(v) != clients {
			t.Fatalf("%v: ctr=%d, want %d (exactly-once)", r.cfg.Self, kvstoreCounter(v), clients)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestBatchingByzantineEquivocation: a byzantine owner equivocates over
// whole batches (same batch signed at different instances for different
// replica halves). Clients detect the conflicting embedded SPECORDERs,
// the POM freezes the equivocator's space, and every command still
// executes exactly once.
func TestBatchingByzantineEquivocation(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 2
	opts.batchDelay = 5 * time.Millisecond
	opts.byz = map[types.ReplicaID]byzantine{0: newEquivocator}
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	const clients = 4
	leaders := make([]types.ReplicaID, clients) // all at the equivocator
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		scripts[c] = []types.Command{incrCmd("n")}
	}
	tc := newTestCluster(t, opts, leaders, scripts)
	if !tc.run(60 * time.Second) {
		t.Fatal("commands did not complete despite batch equivocation")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	poms := uint64(0)
	for _, c := range tc.clients {
		poms += c.Stats().POMsSent
	}
	if poms == 0 {
		t.Fatal("no client sent a POM")
	}
	for _, r := range tc.correctReplicas() {
		if !r.Frozen(0) {
			t.Fatalf("%v: equivocator's space not frozen", r.cfg.Self)
		}
		v, ok := tc.apps[r.cfg.Self].Get("n")
		if !ok || kvstoreCounter(v) != clients {
			t.Fatalf("%v: n=%d, want %d (exactly-once)", r.cfg.Self, kvstoreCounter(v), clients)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestBatchingDuplicateAcrossBatches: the client's retry fires while its
// request is still queued in the leader's batch, so the request is ordered
// twice — once in the original leader's batch (flushed by the RESENDREQ)
// and once at the rotated leader. Exactly-once execution must hold across
// the duplicate instances.
func TestBatchingDuplicateAcrossBatches(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 64                      // never fills from one client
	opts.batchDelay = 400 * time.Millisecond // longer than the retry timeout
	opts.retryTimeout = 100 * time.Millisecond
	opts.resendTimeout = 500 * time.Millisecond
	tc := newTestCluster(t, opts,
		[]types.ReplicaID{0},
		[][]types.Command{{incrCmd("n"), incrCmd("n")}},
	)
	if !tc.run(30 * time.Second) {
		t.Fatal("commands did not complete")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	if tc.clients[0].Stats().Retries == 0 {
		t.Fatal("test did not exercise the retry path")
	}
	for _, r := range tc.correctReplicas() {
		v, ok := tc.apps[r.cfg.Self].Get("n")
		if !ok || kvstoreCounter(v) != 2 {
			t.Fatalf("%v: n=%d, want 2 (exactly-once across duplicate batches)", r.cfg.Self, kvstoreCounter(v))
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
	tc.checkNontriviality()
}

// TestBatchingOwnerChangeMidBatch: the leader goes mute with requests
// accumulating in its batch. The owner change freezes its space and the
// clients' retry rotation re-proposes the stranded commands — in fresh
// batches at the new leader — exactly once.
func TestBatchingOwnerChangeMidBatch(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 4
	opts.batchDelay = 5 * time.Millisecond
	opts.mute = map[types.ReplicaID]bool{0: true}
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	const clients = 4
	leaders := make([]types.ReplicaID, clients)
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		scripts[c] = []types.Command{incrCmd("n")}
	}
	tc := newTestCluster(t, opts, leaders, scripts)
	if !tc.run(60 * time.Second) {
		t.Fatal("commands did not complete despite mid-batch owner change")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	for _, r := range tc.correctReplicas() {
		if !r.Frozen(0) {
			t.Fatalf("%v: mute leader's space not frozen", r.cfg.Self)
		}
		v, ok := tc.apps[r.cfg.Self].Get("n")
		if !ok || kvstoreCounter(v) != clients {
			t.Fatalf("%v: n=%d, want %d (exactly-once)", r.cfg.Self, kvstoreCounter(v), clients)
		}
	}
	tc.checkConsistency()
	tc.checkStateConvergence()
}

// TestBatchingOwnerChangeRecoversWholeBatch: a batch is spec-ordered
// everywhere but its leader crashes before any commit completes (replies
// from two replicas are withheld so clients cannot decide). The owner
// change must recover the batch whole — every command, in order — via
// Condition 2, and the clients then complete against the frozen space.
func TestBatchingOwnerChangeRecoversWholeBatch(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 4
	opts.batchDelay = 5 * time.Millisecond
	opts.retryTimeout = 300 * time.Millisecond
	opts.resendTimeout = 200 * time.Millisecond
	const clients = 4
	leaders := make([]types.ReplicaID, clients)
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		scripts[c] = []types.Command{putCmd(fmt.Sprintf("rk%d", c), "v")}
	}
	tc := newTestCluster(t, opts, leaders, scripts)

	// Withhold SPECREPLYs from R2 and R3: clients see only two replies and
	// can neither fast- nor slow-commit.
	tc.rt.SetFilter(func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if _, ok := msg.(*SpecReply); ok && from.IsReplica() && from.Replica() >= 2 && to.IsClient() {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	})
	tc.rt.Start()
	// Run until every replica has the batch spec-ordered, then crash the
	// leader and lift the filter.
	ok := tc.rt.RunUntil(func() bool {
		for _, r := range tc.replicas {
			if r.log.space(0).maxSlot < 1 {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		t.Fatal("batch never spec-ordered everywhere")
	}
	if got := tc.replicas[1].log.get(types.InstanceID{Space: 0, Slot: 1}).nCmds(); got != clients {
		t.Fatalf("batch size at R1 = %d, want %d", got, clients)
	}
	tc.rt.Crash(types.ReplicaNode(0))
	tc.rt.SetFilter(nil)

	done := tc.rt.RunUntil(func() bool {
		for _, d := range tc.drivers {
			if len(d.Results) < 1 {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !done {
		t.Fatal("commands did not complete after leader crash")
	}
	tc.rt.Run(tc.rt.Now() + 2*time.Second)

	inst := types.InstanceID{Space: 0, Slot: 1}
	for _, r := range tc.replicas[1:] {
		e := r.log.get(inst)
		if e == nil || e.status != StatusExecuted {
			t.Fatalf("%v: batch instance %v not executed (entry %v)", r.cfg.Self, inst, e)
		}
		if e.nCmds() != clients {
			t.Fatalf("%v: recovered batch has %d commands, want %d — owner change split the batch",
				r.cfg.Self, e.nCmds(), clients)
		}
		for c := 0; c < clients; c++ {
			if v, ok := tc.apps[r.cfg.Self].Get(fmt.Sprintf("rk%d", c)); !ok || string(v) != "v" {
				t.Fatalf("%v: rk%d=%q, want v", r.cfg.Self, c, v)
			}
		}
	}
	// Survivors only: R0 is frozen in time.
	ref := tc.apps[1].Digest()
	for i := 2; i < 4; i++ {
		if tc.apps[i].Digest() != ref {
			t.Fatalf("replica %d state diverged", i)
		}
	}
	tc.checkConsistency()
}

// captureCtx records sends for direct-handler tests.
type captureCtx struct {
	noopCtx
	sends []codec.Message
}

func (c *captureCtx) Send(_ types.NodeID, msg codec.Message) { c.sends = append(c.sends, msg) }

// TestSameInstanceBatchEquivocationPOM: an equivocating leader signs two
// DIFFERENT batches for the SAME instance, both containing the client's
// command. The client must not combine replies across the two proposals
// (they group separately), must emit a POM, and replicas must accept that
// POM as equivocation evidence.
func TestSameInstanceBatchEquivocationPOM(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, [][]types.Command{{}})
	cl := tc.clients[0]
	leaderAuth := tc.replicas[0].cfg.Auth

	ctx := &captureCtx{}
	cl.Submit(ctx, putCmd("k", "v"))
	p := cl.Pending[1]

	mkSO := func(extraKey string) *SpecOrder {
		extra := Request{Cmd: types.Command{Client: 99, Timestamp: 1, Op: types.OpPut, Key: extraKey}, Orig: noOrig, Sig: []byte{1}}
		so := &SpecOrder{
			Owner: 0,
			Inst:  types.InstanceID{Space: 0, Slot: 1},
			Deps:  types.NewInstanceSet(),
			Seq:   1,
			Req:   *p.Req.(*Request),
			Batch: []Request{extra},
		}
		so.CmdDigest = BatchDigest(so.CmdDigests())
		so.Sig = engine.SignBody(leaderAuth, so)
		return so
	}
	so1, so2 := mkSO("a"), mkSO("b")
	if so1.CmdDigest == so2.CmdDigest {
		t.Fatal("test setup: batches must differ")
	}

	mkReply := func(from types.ReplicaID, so *SpecOrder) *SpecReply {
		sr := &SpecReply{
			Owner: 0, Inst: so.Inst, Deps: types.NewInstanceSet(), Seq: 1,
			CmdDigest: p.Digest, Client: cl.Cfg.ID, Timestamp: 1,
			Replica: from, Result: types.Result{OK: true},
			Batched: true, BatchIdx: 0, SORef: so.CmdDigest, SO: so,
		}
		a, err := tc.replicas[from].cfg.Auth, error(nil)
		_ = err
		sr.Sig = engine.SignBody(a, sr)
		return sr
	}

	cl.handleSpecReply(ctx, mkReply(1, so1))
	cl.handleSpecReply(ctx, mkReply(2, so2))

	if cl.Count.POMsSent != 1 {
		t.Fatalf("POMs sent = %d, want 1 (same-instance batch equivocation)", cl.Count.POMsSent)
	}
	// Replies for different proposals must not share a quorum group.
	if len(p.groups) != 2 {
		t.Fatalf("reply groups = %d, want 2 (one per proposal)", len(p.groups))
	}
	var pom *POM
	for _, m := range ctx.sends {
		if pm, ok := m.(*POM); ok {
			pom = pm
		}
	}
	if pom == nil {
		t.Fatal("no POM broadcast")
	}
	// A replica accepts the POM and votes for an owner change.
	r3 := tc.replicas[3]
	rctx := &captureCtx{}
	r3.Receive(rctx, types.ClientNode(0), pom)
	if rd := r3.rounds[changeKey{0, 0}]; rd == nil || !rd.sent {
		t.Fatal("replica did not start an owner change on the POM")
	}
}

// TestSpecReplyEvidenceSlimming: only the BatchIdx-0 reply of a batched
// instance embeds the full SPECORDER; the rest carry the signed SORef
// digest and are dramatically smaller on the wire, killing the O(k²)
// reply-byte blowup while every reply still names its proposal.
func TestSpecReplyEvidenceSlimming(t *testing.T) {
	opts := defaultOpts()
	opts.batchSize = 4
	opts.batchDelay = 5 * time.Millisecond
	const clients = 8
	leaders := make([]types.ReplicaID, clients)
	tc := newTestCluster(t, opts, leaders, batchScripts(clients))
	if !tc.run(10 * time.Second) {
		t.Fatal("commands did not complete")
	}
	tc.rt.Run(tc.rt.Now() + time.Second)

	var withSO, slim int
	for _, r := range tc.replicas {
		for _, reply := range r.replyCache {
			if !reply.Batched {
				continue
			}
			if reply.SORef == (types.Digest{}) {
				t.Fatal("batched reply without a proposal reference")
			}
			if reply.BatchIdx == 0 {
				if reply.SO == nil {
					t.Fatal("BatchIdx-0 reply lost its SPECORDER evidence")
				}
				if reply.SO.CmdDigest != reply.SORef {
					t.Fatal("SORef does not name the embedded proposal")
				}
				withSO++
			} else {
				if reply.SO != nil {
					t.Fatalf("BatchIdx-%d reply still embeds the full SPECORDER", reply.BatchIdx)
				}
				if len(codec.Marshal(reply)) >= len(codec.Marshal(&SpecReply{
					Owner: reply.Owner, Inst: reply.Inst, Deps: reply.Deps, Seq: reply.Seq,
					CmdDigest: reply.CmdDigest, Client: reply.Client, Timestamp: reply.Timestamp,
					Replica: reply.Replica, Result: reply.Result,
					Batched: true, BatchIdx: reply.BatchIdx, SORef: reply.SORef,
					SO: reply.SO, Sig: reply.Sig,
				}))+64*3 {
					// A slim reply must be smaller than the same reply plus a
					// 4-command batch (each command ≥ ~64 bytes with envelope).
					t.Fatal("slim reply not actually smaller")
				}
				slim++
			}
		}
	}
	if withSO == 0 || slim == 0 {
		t.Fatalf("slimming not exercised: %d full, %d slim replies", withSO, slim)
	}
}

// TestDeferredSlimCommit: a slow-path COMMIT whose evidence-slimmed
// certificate (BatchIdx > 0, no embedded SPECORDER) arrives before the
// SPECORDER is parked, then applied when the proposal arrives — the
// instance commits instead of being dropped.
func TestDeferredSlimCommit(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 0}, [][]types.Command{{}, {}})
	leaderAuth := tc.replicas[0].cfg.Auth
	cl := tc.clients[0]

	ctx := &captureCtx{}
	cl.Submit(ctx, putCmd("k", "v"))
	p := cl.Pending[1]

	// Leader R0 signs a batch of two: client 1's command first, our
	// client's command at BatchIdx 1.
	other := Request{Cmd: types.Command{Client: 1, Timestamp: 1, Op: types.OpPut, Key: "o"}, Orig: noOrig}
	other.Sig = engine.SignBody(tc.clients[1].Cfg.Auth, &other)
	so := &SpecOrder{
		Owner: 0,
		Inst:  types.InstanceID{Space: 0, Slot: 1},
		Deps:  types.NewInstanceSet(),
		Seq:   1,
		Req:   other,
		Batch: []Request{*p.Req.(*Request)},
	}
	so.CmdDigest = BatchDigest(so.CmdDigests())
	sp := tc.replicas[0].log.space(0)
	sp.extendHash(so.Inst, so.CmdDigest)
	so.LogHash = sp.logHash
	so.Sig = engine.SignBody(leaderAuth, so)

	// 2f+1 slim replies for our command (BatchIdx 1, SORef only).
	cert := make([]*SpecReply, 0, 3)
	for _, rid := range []types.ReplicaID{0, 1, 2} {
		sr := &SpecReply{
			Owner: 0, Inst: so.Inst, Deps: types.NewInstanceSet(), Seq: 1,
			CmdDigest: p.Digest, Client: cl.Cfg.ID, Timestamp: 1,
			Replica: rid, Result: types.Result{OK: true},
			Batched: true, BatchIdx: 1, SORef: so.CmdDigest,
		}
		sr.Sig = engine.SignBody(tc.replicas[rid].cfg.Auth, sr)
		cert = append(cert, sr)
	}
	commit := &Commit{
		Client: cl.Cfg.ID, Timestamp: 1, Inst: so.Inst,
		Deps: types.NewInstanceSet(), Seq: 1, Cert: cert,
	}
	commit.Sig = engine.SignBody(cl.Cfg.Auth, commit)

	// R3 sees the COMMIT before the SPECORDER: the decision must be
	// parked, not dropped.
	r3 := tc.replicas[3]
	rctx := &captureCtx{}
	r3.Receive(rctx, types.ClientNode(cl.Cfg.ID), commit)
	if r3.stats.DeferredCommits != 1 {
		t.Fatalf("deferred commits = %d, want 1", r3.stats.DeferredCommits)
	}
	if r3.log.get(so.Inst) != nil {
		t.Fatal("slim certificate installed an entry on its own")
	}
	if r3.stats.SlowCommits != 0 {
		t.Fatal("commit applied before the SPECORDER arrived")
	}

	// The SPECORDER arrives: the parked decision applies and the whole
	// batch commits.
	r3.Receive(rctx, types.ReplicaNode(0), so)
	e := r3.log.get(so.Inst)
	if e == nil || e.status < StatusCommitted {
		t.Fatalf("instance not committed after the SPECORDER arrived (entry %v)", e)
	}
	if e.nCmds() != 2 {
		t.Fatalf("committed batch has %d commands, want 2", e.nCmds())
	}
	if r3.stats.SlowCommits != 1 {
		t.Fatalf("slow commits = %d, want 1", r3.stats.SlowCommits)
	}
}

// TestDeferredSlimCommitDrainedByFullCert: a parked slim decision must
// also drain when the instance becomes known through ANOTHER client's
// full-evidence certificate rather than the SPECORDER itself — otherwise
// the parked client's decision (deps/seq union, its COMMITREPLY) would be
// stranded forever.
func TestDeferredSlimCommitDrainedByFullCert(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 0}, [][]types.Command{{}, {}})
	leaderAuth := tc.replicas[0].cfg.Auth
	cl0, cl1 := tc.clients[0], tc.clients[1]

	ctx := &captureCtx{}
	cl0.Submit(ctx, putCmd("k", "v"))
	p0 := cl0.Pending[1]
	cl1.Submit(ctx, putCmd("o", "w"))
	p1 := cl1.Pending[1]

	// Leader R0 signs a batch of two: client 1's command at idx 0, client
	// 0's at idx 1.
	so := &SpecOrder{
		Owner: 0,
		Inst:  types.InstanceID{Space: 0, Slot: 1},
		Deps:  types.NewInstanceSet(),
		Seq:   1,
		Req:   *p1.Req.(*Request),
		Batch: []Request{*p0.Req.(*Request)},
	}
	so.CmdDigest = BatchDigest(so.CmdDigests())
	so.Sig = engine.SignBody(leaderAuth, so)

	mkCert := func(digest types.Digest, client types.ClientID, idx uint32, withSO bool) []*SpecReply {
		cert := make([]*SpecReply, 0, 3)
		for _, rid := range []types.ReplicaID{0, 1, 2} {
			sr := &SpecReply{
				Owner: 0, Inst: so.Inst, Deps: types.NewInstanceSet(), Seq: 1,
				CmdDigest: digest, Client: client, Timestamp: 1,
				Replica: rid, Result: types.Result{OK: true},
				Batched: true, BatchIdx: idx, SORef: so.CmdDigest,
			}
			if withSO && rid == 0 {
				sr.SO = so
			}
			sr.Sig = engine.SignBody(tc.replicas[rid].cfg.Auth, sr)
			cert = append(cert, sr)
		}
		return cert
	}

	// Client 0's slim commit (idx 1, no SPECORDER) arrives first: parked.
	commit0 := &Commit{
		Client: cl0.Cfg.ID, Timestamp: 1, Inst: so.Inst,
		Deps: types.NewInstanceSet(), Seq: 1, Cert: mkCert(p0.Digest, cl0.Cfg.ID, 1, false),
	}
	commit0.Sig = engine.SignBody(cl0.Cfg.Auth, commit0)
	r3 := tc.replicas[3]
	rctx := &captureCtx{}
	r3.Receive(rctx, types.ClientNode(cl0.Cfg.ID), commit0)
	if r3.stats.DeferredCommits != 1 {
		t.Fatalf("deferred commits = %d, want 1", r3.stats.DeferredCommits)
	}

	// Client 1's full-evidence commit (idx 0, SPECORDER embedded) installs
	// the entry — and must drain client 0's parked decision with it.
	commit1 := &Commit{
		Client: cl1.Cfg.ID, Timestamp: 1, Inst: so.Inst,
		Deps: types.NewInstanceSet(), Seq: 1, Cert: mkCert(p1.Digest, cl1.Cfg.ID, 0, true),
	}
	commit1.Sig = engine.SignBody(cl1.Cfg.Auth, commit1)
	r3.Receive(rctx, types.ClientNode(cl1.Cfg.ID), commit1)

	e := r3.log.get(so.Inst)
	if e == nil || e.status < StatusCommitted {
		t.Fatalf("instance not committed after full-evidence cert (entry %v)", e)
	}
	if len(r3.deferredCommits) != 0 {
		t.Fatal("parked decision not drained by the full-evidence certificate")
	}
	if r3.stats.SlowCommits != 2 {
		t.Fatalf("slow commits = %d, want 2 (the installing cert plus the drained one)", r3.stats.SlowCommits)
	}
}

// TestCommitRejectsSwappedSpecOrder: the SPECORDER embedded in a commit
// certificate rides outside the replies' signed bodies, so a Byzantine
// client could swap in an equivocating leader's OTHER signed proposal.
// The replica must refuse to install an entry from a certificate whose
// embedded proposal is not the one the signed replies vouch for — batched
// (signed SORef mismatch) and unbatched (positional digest mismatch)
// alike.
func TestCommitRejectsSwappedSpecOrder(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0, 0}, [][]types.Command{{}, {}})
	leaderAuth := tc.replicas[0].cfg.Auth
	cl := tc.clients[0]

	ctx := &captureCtx{}
	cl.Submit(ctx, putCmd("k", "v"))
	p := cl.Pending[1]

	mkSO := func(first Request, extra *Request) *SpecOrder {
		so := &SpecOrder{
			Owner: 0,
			Inst:  types.InstanceID{Space: 0, Slot: 1},
			Deps:  types.NewInstanceSet(),
			Seq:   1,
			Req:   first,
		}
		if extra != nil {
			so.Batch = []Request{*extra}
		}
		so.CmdDigest = BatchDigest(so.CmdDigests())
		so.Sig = engine.SignBody(leaderAuth, so)
		return so
	}
	other := Request{Cmd: types.Command{Client: 1, Timestamp: 1, Op: types.OpPut, Key: "o"}, Orig: noOrig}
	other.Sig = engine.SignBody(tc.clients[1].Cfg.Auth, &other)
	evil := Request{Cmd: types.Command{Client: 1, Timestamp: 1, Op: types.OpPut, Key: "evil"}, Orig: noOrig}
	evil.Sig = engine.SignBody(tc.clients[1].Cfg.Auth, &evil)

	// Batched: replies vouch (via signed SORef) for batch A, but the
	// certificate embeds the leader's other signed batch B.
	soA := mkSO(*p.Req.(*Request), &other)
	soB := mkSO(*p.Req.(*Request), &evil)
	cert := make([]*SpecReply, 0, 3)
	for _, rid := range []types.ReplicaID{0, 1, 2} {
		sr := &SpecReply{
			Owner: 0, Inst: soA.Inst, Deps: types.NewInstanceSet(), Seq: 1,
			CmdDigest: p.Digest, Client: cl.Cfg.ID, Timestamp: 1,
			Replica: rid, Result: types.Result{OK: true},
			Batched: true, BatchIdx: 0, SORef: soA.CmdDigest,
		}
		sr.Sig = engine.SignBody(tc.replicas[rid].cfg.Auth, sr)
		cert = append(cert, sr)
	}
	cert[0].SO = soB // the swap
	commit := &Commit{
		Client: cl.Cfg.ID, Timestamp: 1, Inst: soA.Inst,
		Deps: types.NewInstanceSet(), Seq: 1, Cert: cert,
	}
	commit.Sig = engine.SignBody(cl.Cfg.Auth, commit)
	r3 := tc.replicas[3]
	r3.Receive(&captureCtx{}, types.ClientNode(cl.Cfg.ID), commit)
	if e := r3.log.get(soA.Inst); e != nil {
		t.Fatalf("swapped batched SPECORDER installed an entry: %v", e)
	}
	if r3.stats.SlowCommits != 0 {
		t.Fatal("swapped batched SPECORDER committed")
	}

	// Unbatched: replies vouch for the client's command, but the embedded
	// proposal orders a different one (no SORef exists unbatched; the
	// positional digest binding must catch it).
	soEvil := mkSO(evil, nil)
	cert2 := make([]*SpecReply, 0, 3)
	for _, rid := range []types.ReplicaID{0, 1, 2} {
		sr := &SpecReply{
			Owner: 0, Inst: soEvil.Inst, Deps: types.NewInstanceSet(), Seq: 1,
			CmdDigest: p.Digest, Client: cl.Cfg.ID, Timestamp: 1,
			Replica: rid, Result: types.Result{OK: true},
			SO: soEvil,
		}
		sr.Sig = engine.SignBody(tc.replicas[rid].cfg.Auth, sr)
		cert2 = append(cert2, sr)
	}
	commit2 := &Commit{
		Client: cl.Cfg.ID, Timestamp: 1, Inst: soEvil.Inst,
		Deps: types.NewInstanceSet(), Seq: 1, Cert: cert2,
	}
	commit2.Sig = engine.SignBody(cl.Cfg.Auth, commit2)
	dropped := r3.stats.DroppedInvalid
	r3.Receive(&captureCtx{}, types.ClientNode(cl.Cfg.ID), commit2)
	if e := r3.log.get(soEvil.Inst); e != nil {
		t.Fatalf("swapped unbatched SPECORDER installed an entry: %v", e)
	}
	if r3.stats.DroppedInvalid == dropped {
		t.Fatal("swapped unbatched SPECORDER not counted as invalid")
	}
	if r3.stats.FinalExecutions != 0 {
		t.Fatal("swapped unbatched SPECORDER executed")
	}
}

// TestValidateCertRejectsMixedBatches: a certificate mixing replies built
// from different proposals (or layouts) is not a quorum for anything.
func TestValidateCertRejectsMixedBatches(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, opts, []types.ReplicaID{0}, [][]types.Command{{}})
	r0 := tc.replicas[0]

	inst := types.InstanceID{Space: 0, Slot: 1}
	cmd := types.Command{Client: 0, Timestamp: 1, Op: types.OpPut, Key: "k"}
	mk := func(from types.ReplicaID, batched bool, idx uint32) *SpecReply {
		sr := &SpecReply{
			Owner: 0, Inst: inst, Deps: types.NewInstanceSet(), Seq: 1,
			CmdDigest: cmd.Digest(), Client: 0, Timestamp: 1,
			Replica: from, Result: types.Result{OK: true},
			Batched: batched, BatchIdx: idx,
		}
		sr.Sig = engine.SignBody(tc.replicas[from].cfg.Auth, sr)
		return sr
	}
	// Each COMMIT claims what its replies combine to, as a client's does.
	commit := func(cert []*SpecReply) *Commit {
		deps, seq := certDecision(cert)
		return &Commit{Deps: deps, Seq: seq, Cert: cert}
	}
	good := []*SpecReply{mk(0, true, 1), mk(1, true, 1), mk(2, true, 1)}
	if !r0.validateCert(noopCtx{}, inst, commit(good), SlowQuorum(4)) {
		t.Fatal("homogeneous cert rejected")
	}
	mixed := []*SpecReply{mk(0, true, 1), mk(1, false, 0), mk(2, true, 1)}
	if r0.validateCert(noopCtx{}, inst, commit(mixed), SlowQuorum(4)) {
		t.Fatal("cert mixing batched and unbatched replies accepted")
	}
	mixedIdx := []*SpecReply{mk(0, true, 1), mk(1, true, 2), mk(2, true, 1)}
	if r0.validateCert(noopCtx{}, inst, commit(mixedIdx), SlowQuorum(4)) {
		t.Fatal("cert mixing batch positions accepted")
	}
}

// burstScript submits its whole script at once instead of one command at a
// time.
type burstScript struct{ *workload.FixedScript }

func (d burstScript) Start(ctx proc.Context, s workload.Submitter) {
	for _, cmd := range d.Commands {
		s.Submit(ctx, cmd)
	}
}

func (d burstScript) Completed(_ proc.Context, _ workload.Submitter, c workload.Completion) {
	d.Results = append(d.Results, c)
}

// TestPipelinedSlowPathCommitReplies: one client's pipelined requests share
// batch instances, and with a replica silent each commits on the slow path,
// where the replicas answer every command of a batch with its own
// COMMITREPLY. Each reply must complete the request whose digest it
// carries, not whichever request of its instance the client finds first;
// a reply credited to the wrong request is dropped, and its own request
// waits for a retry.
func TestPipelinedSlowPathCommitReplies(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		opts := defaultOpts()
		opts.seed = seed
		opts.batchSize = 4
		opts.batchDelay = 5 * time.Millisecond
		opts.mute = map[types.ReplicaID]bool{3: true}
		opts.driver = func(_ int, script *workload.FixedScript) workload.Driver { return burstScript{script} }
		tc := newTestCluster(t, opts, []types.ReplicaID{0}, uniqueKeyScripts(1, 8))
		if !tc.run(30 * time.Second) {
			t.Fatalf("seed %d: %d of 8 commands completed", seed, len(tc.drivers[0].Results))
		}
		if st := tc.clients[0].Stats(); st.Retries != 0 || st.SlowDecisions != 8 {
			t.Fatalf("seed %d: %d retries and %d slow decisions, want 0 and 8", seed, st.Retries, st.SlowDecisions)
		}
	}
}
