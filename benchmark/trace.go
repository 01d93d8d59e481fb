package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/core"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/transport"
	"ezbft/internal/types"
)

// kind names what a span covers; its layer is the module the covered call
// belongs to. The receive kinds are message kinds: the span is the
// ordering loop's (or client's) Receive for that message.
type kind uint8

const (
	kindNone kind = iota
	// proc.Process.Receive by message kind, OnTimer, and the client's
	// injected Submit: the spans every other in-loop span is a child of.
	kindRequest
	kindSpecOrder
	kindSpecReply
	kindCommitFast
	kindCommit
	kindCommitReply
	kindCheckpoint
	kindPrePrepare
	kindPrepare
	kindPBFTCommit
	kindReply
	kindOther
	kindTimer
	kindClientSubmit
	// auth.Authenticator
	kindSign
	kindVerify
	kindVerifyMiss // the real verification under the verify cache
	// transport.Sender
	kindSend
	kindSendAll
	// types.Application
	kindSpecExecute
	kindPromoteFinal
	kindApply
	kindRollback
	kindDigest
	kindSnapshot
	kindRestore
	// store.Store
	kindAppend
	kindSync
	kindSaveSnapshot
	// transport.VerifyPool's verify func
	kindPoolVerify
	// codec.EncodedSize calls the sender wrapper makes to count bytes:
	// the tracer's own cost inside a handler, kept out of its self time.
	kindSizeOf
	numKinds
)

var kindNames = [numKinds]struct{ layer, name string }{
	kindNone:         {"", ""},
	kindRequest:      {"core", "receive.request"},
	kindSpecOrder:    {"core", "receive.specorder"},
	kindSpecReply:    {"core", "receive.specreply"},
	kindCommitFast:   {"core", "receive.commitfast"},
	kindCommit:       {"core", "receive.commit"},
	kindCommitReply:  {"core", "receive.commitreply"},
	kindCheckpoint:   {"core", "receive.checkpoint"},
	kindPrePrepare:   {"pbft", "receive.preprepare"},
	kindPrepare:      {"pbft", "receive.prepare"},
	kindPBFTCommit:   {"pbft", "receive.commit"},
	kindReply:        {"pbft", "receive.reply"},
	kindOther:        {"engine", "receive.other"},
	kindTimer:        {"engine", "ontimer"},
	kindClientSubmit: {"client", "submit"},
	kindSign:         {"auth", "sign"},
	kindVerify:       {"auth", "verify"},
	kindVerifyMiss:   {"auth", "verify.miss"},
	kindSend:         {"transport", "send"},
	kindSendAll:      {"transport", "sendall"},
	kindSpecExecute:  {"kvstore", "specexecute"},
	kindPromoteFinal: {"kvstore", "promotefinal"},
	kindApply:        {"kvstore", "apply"},
	kindRollback:     {"kvstore", "rollback"},
	kindDigest:       {"kvstore", "digest"},
	kindSnapshot:     {"kvstore", "snapshot"},
	kindRestore:      {"kvstore", "restore"},
	kindAppend:       {"store", "append"},
	kindSync:         {"store", "sync"},
	kindSaveSnapshot: {"store", "savesnapshot"},
	kindPoolVerify:   {"transport", "verifypool.verify"},
	kindSizeOf:       {"trace", "sizeof"},
}

// isLoop reports whether the kind is a top-level span of a node's
// single-threaded loop.
func (k kind) isLoop() bool { return k >= kindRequest && k <= kindClientSubmit }

// span is one timed call into a layer.
type span struct {
	start, end int64 // ns since the tracer's epoch; end 0 = never finished
	// wait is how long the message queued before this span began: in the
	// node's inbox for a Receive span, in the verify pool's queue for a
	// pool verify span. -1 where no queue was timed.
	wait      int64
	parent    int32 // enclosing span's index, -1 for none
	count     int32 // destinations of a send
	bytes     int32 // bytes sent or appended
	reqClient int32 // request identity where the message exposes one, else -1
	reqTs     uint64
	node      int16 // replica id, or numReplicas + client id
	kind      kind
}

// maxSpans bounds the spans one run keeps (48 bytes each, allocated
// untouched up front). A saturated run records about 100 per request;
// when the buffer fills, tracing stops and the table covers the part of
// the run traced until then.
const maxSpans = 1 << 22

// maxSpansWritten bounds the span file; the table is computed from every
// span kept.
const maxSpansWritten = 200_000

// tracer keeps the spans of one run in memory. Slots are claimed with one
// atomic add, and a slot is only ever written by the goroutine that claimed
// it, so recording takes no lock.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	next   atomic.Int64
	fullAt atomic.Int64 // when the buffer filled (ns since epoch), 0 = it has not
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type reqID struct {
	client int32
	ts     uint64
}

var noReq = reqID{client: -1}

// begin opens a span, or returns -1 while tracing is off or the buffer is
// full.
func (t *tracer) begin(k kind, node int, parent int32, req reqID) int32 {
	if !t.on.Load() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= maxSpans {
		if t.on.CompareAndSwap(true, false) {
			t.fullAt.Store(t.now())
		}
		return -1
	}
	t.spans[i] = span{
		start: t.now(), wait: -1, parent: parent, node: int16(node), kind: k,
		reqClient: req.client, reqTs: req.ts,
	}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// kept returns the spans recorded; call it only after every traced
// goroutine has stopped.
func (t *tracer) kept() []span { return t.spans[:min(t.next.Load(), maxSpans)] }

// writeSpans writes the first maxSpansWritten spans as CSV under dir.
func (t *tracer) writeSpans(dir, workload string) error {
	spans := t.kept()
	path := filepath.Join(dir, "ezbft-benchmark-spans-"+workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,layer,name,node,start_ns,end_ns,wait_ns,parent,req_client,req_ts,count,bytes")
	for i, s := range spans[:min(len(spans), maxSpansWritten)] {
		n := kindNames[s.kind]
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			i, n.layer, n.name, s.node, s.start, s.end, s.wait, s.parent, s.reqClient, s.reqTs, s.count, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d of %d spans written to %s\n",
		min(len(spans), maxSpansWritten), len(spans), path)
	return nil
}

// nodeProbe is one node's tracing state.
type nodeProbe struct {
	tr *tracer
	id int
	// cur is the loop span in progress, -1 between handlers. Only the
	// node's loop goroutine touches it, and every in-loop wrapper reads it
	// as its parent.
	cur int32

	// Stamps of messages waiting in the verify pool's and the node's
	// queues, keyed by the message value both ends of the queue see.
	mu        sync.Mutex
	submitted map[codec.Message]int64
	delivered map[codec.Message]int64
}

func newNodeProbe(tr *tracer, id int) *nodeProbe {
	return &nodeProbe{
		tr: tr, id: id, cur: -1,
		submitted: make(map[codec.Message]int64),
		delivered: make(map[codec.Message]int64),
	}
}

func (np *nodeProbe) stamp(m map[codec.Message]int64, msg codec.Message) {
	if !np.tr.on.Load() {
		return
	}
	now := np.tr.now()
	np.mu.Lock()
	m[msg] = now
	np.mu.Unlock()
}

// waited closes the wait opened by stamp and notes it on span i, the span
// of whatever took the message off the queue.
func (np *nodeProbe) waited(m map[codec.Message]int64, msg codec.Message, i int32) {
	np.mu.Lock()
	at, ok := m[msg]
	delete(m, msg)
	np.mu.Unlock()
	if ok && i >= 0 {
		np.tr.spans[i].wait = np.tr.spans[i].start - at
	}
}

// classify names a message's receive kind and the request it belongs to.
func classify(msg codec.Message) (kind, reqID) {
	switch m := msg.(type) {
	case *core.Request:
		return kindRequest, reqID{int32(m.Cmd.Client), m.Cmd.Timestamp}
	case *core.SpecOrder:
		return kindSpecOrder, reqID{int32(m.Req.Cmd.Client), m.Req.Cmd.Timestamp}
	case *core.SpecReply:
		return kindSpecReply, reqID{int32(m.Client), m.Timestamp}
	case *core.CommitFast:
		if len(m.Cert) > 0 {
			return kindCommitFast, reqID{int32(m.Client), m.Cert[0].Timestamp}
		}
		return kindCommitFast, noReq
	case *core.Commit:
		return kindCommit, reqID{int32(m.Client), m.Timestamp}
	case *core.CommitReply:
		return kindCommitReply, noReq
	case *core.CheckpointMsg:
		return kindCheckpoint, noReq
	case *pbft.Request:
		return kindRequest, reqID{int32(m.Cmd.Client), m.Cmd.Timestamp}
	case *pbft.PrePrepare:
		return kindPrePrepare, reqID{int32(m.Req.Cmd.Client), m.Req.Cmd.Timestamp}
	case *pbft.Prepare:
		return kindPrepare, noReq
	case *pbft.Commit:
		return kindPBFTCommit, noReq
	case *pbft.Reply:
		return kindReply, reqID{int32(m.Client), m.Timestamp}
	case *pbft.Checkpoint:
		return kindCheckpoint, noReq
	default:
		return kindOther, noReq
	}
}

// tracedProc times a process's handlers: the spans of the node's loop.
type tracedProc struct {
	proc.Process
	np *nodeProbe
}

func (p *tracedProc) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	np := p.np
	k, req := classify(msg)
	np.cur = np.tr.begin(k, np.id, -1, req)
	np.waited(np.delivered, msg, np.cur)
	p.Process.Receive(ctx, from, msg)
	np.tr.end(np.cur)
	np.cur = -1
}

func (p *tracedProc) OnTimer(ctx proc.Context, id proc.TimerID) {
	np := p.np
	np.cur = np.tr.begin(kindTimer, np.id, -1, noReq)
	p.Process.OnTimer(ctx, id)
	np.tr.end(np.cur)
	np.cur = -1
}

// tracedAuth times Sign and Verify. parent points at the span the calls
// happen under: the node's loop span, or a pool verify span. Stacked
// around a verify cache, the inner instance (kindVerifyMiss, no sign kind)
// hangs under the outer one's cur.
type tracedAuth struct {
	inner  auth.Authenticator
	np     *nodeProbe
	parent *int32
	sign   kind // kindNone passes Sign through untimed
	verify kind
	cur    int32
}

func (a *tracedAuth) Scheme() auth.Scheme { return a.inner.Scheme() }

func (a *tracedAuth) Sign(payload []byte) []byte {
	if a.sign == kindNone {
		return a.inner.Sign(payload)
	}
	id := a.np.tr.begin(a.sign, a.np.id, *a.parent, noReq)
	sig := a.inner.Sign(payload)
	a.np.tr.end(id)
	return sig
}

func (a *tracedAuth) Verify(signer types.NodeID, payload, token []byte) error {
	a.cur = a.np.tr.begin(a.verify, a.np.id, *a.parent, noReq)
	err := a.inner.Verify(signer, payload, token)
	a.np.tr.end(a.cur)
	a.cur = -1
	return err
}

// tracedSender times Send and SendAll and counts messages and bytes.
type tracedSender struct {
	inner transport.MultiSender
	np    *nodeProbe
}

var _ transport.MultiSender = (*tracedSender)(nil)

// sizeOf measures a message's encoded size under its own span, so the
// tracer's extra marshal is not charged to the handler that sent it.
func (s *tracedSender) sizeOf(msg codec.Message) int32 {
	if !s.np.tr.on.Load() {
		return 0
	}
	id := s.np.tr.begin(kindSizeOf, s.np.id, s.np.cur, noReq)
	n := codec.EncodedSize(msg)
	s.np.tr.end(id)
	return int32(n)
}

func (s *tracedSender) Send(from, to types.NodeID, msg codec.Message) error {
	size := s.sizeOf(msg)
	_, req := classify(msg)
	id := s.np.tr.begin(kindSend, s.np.id, s.np.cur, req)
	err := s.inner.Send(from, to, msg)
	s.np.tr.end(id)
	if id >= 0 {
		s.np.tr.spans[id].count, s.np.tr.spans[id].bytes = 1, size
	}
	return err
}

func (s *tracedSender) SendAll(from types.NodeID, tos []types.NodeID, msg codec.Message) error {
	size := s.sizeOf(msg)
	_, req := classify(msg)
	id := s.np.tr.begin(kindSendAll, s.np.id, s.np.cur, req)
	err := s.inner.SendAll(from, tos, msg)
	s.np.tr.end(id)
	if id >= 0 {
		s.np.tr.spans[id].count, s.np.tr.spans[id].bytes = int32(len(tos)), size*int32(len(tos))
	}
	return err
}

// tracedApp times the application calls. It forwards the optional
// Snapshotter contract the reference store implements, which checkpointing
// and state transfer need.
type tracedApp struct {
	inner interface {
		types.SpeculativeApplication
		types.Snapshotter
	}
	np *nodeProbe
}

var (
	_ types.SpeculativeApplication = (*tracedApp)(nil)
	_ types.Snapshotter            = (*tracedApp)(nil)
)

func (a *tracedApp) timed(k kind, cmd types.Command) int32 {
	return a.np.tr.begin(k, a.np.id, a.np.cur, reqID{int32(cmd.Client), cmd.Timestamp})
}

func (a *tracedApp) Apply(cmd types.Command) types.Result {
	id := a.timed(kindApply, cmd)
	defer a.np.tr.end(id)
	return a.inner.Apply(cmd)
}

func (a *tracedApp) SpecExecute(cmd types.Command) types.Result {
	id := a.timed(kindSpecExecute, cmd)
	defer a.np.tr.end(id)
	return a.inner.SpecExecute(cmd)
}

func (a *tracedApp) PromoteFinal(cmd types.Command) types.Result {
	id := a.timed(kindPromoteFinal, cmd)
	defer a.np.tr.end(id)
	return a.inner.PromoteFinal(cmd)
}

func (a *tracedApp) Rollback() {
	id := a.np.tr.begin(kindRollback, a.np.id, a.np.cur, noReq)
	defer a.np.tr.end(id)
	a.inner.Rollback()
}

// Digest is also called by the benchmark's own output check, off the loop
// and with tracing off; np.cur is not read then.
func (a *tracedApp) Digest() types.Digest {
	if !a.np.tr.on.Load() {
		return a.inner.Digest()
	}
	id := a.np.tr.begin(kindDigest, a.np.id, a.np.cur, noReq)
	defer a.np.tr.end(id)
	return a.inner.Digest()
}

func (a *tracedApp) Snapshot() []byte {
	id := a.np.tr.begin(kindSnapshot, a.np.id, a.np.cur, noReq)
	defer a.np.tr.end(id)
	return a.inner.Snapshot()
}

func (a *tracedApp) Restore(snap []byte) error {
	id := a.np.tr.begin(kindRestore, a.np.id, a.np.cur, noReq)
	defer a.np.tr.end(id)
	return a.inner.Restore(snap)
}

// tracedStore times the write path of a replica's store.
type tracedStore struct {
	store.Store
	np *nodeProbe
}

func (s *tracedStore) Append(kind uint8, data []byte) (uint64, error) {
	id := s.np.tr.begin(kindAppend, s.np.id, s.np.cur, noReq)
	lsn, err := s.Store.Append(kind, data)
	s.np.tr.end(id)
	if id >= 0 {
		s.np.tr.spans[id].bytes = int32(len(data))
	}
	return lsn, err
}

func (s *tracedStore) Sync() error {
	id := s.np.tr.begin(kindSync, s.np.id, s.np.cur, noReq)
	defer s.np.tr.end(id)
	return s.Store.Sync()
}

func (s *tracedStore) SaveSnapshot(data []byte) error {
	id := s.np.tr.begin(kindSaveSnapshot, s.np.id, s.np.cur, noReq)
	err := s.Store.SaveSnapshot(data)
	s.np.tr.end(id)
	if id >= 0 {
		s.np.tr.spans[id].bytes = int32(len(data))
	}
	return err
}

// poolFuncs builds the three functions around a node's verify pool: the
// hook in front of Submit (TCP only: the mesh hands the pool's own Submit
// to its dispatcher), the verify func and the deliver func. newVerifier
// builds one verifier bound to one authenticator instance whose spans hang
// under *parent; verify keeps a free list of them because pool workers run
// it concurrently and each call needs its own parent.
func (np *nodeProbe) poolFuncs(
	newVerifier func(parent *int32) func(codec.Message) bool,
	node *transport.LiveNode,
) (onSubmit func(codec.Message), verify func(codec.Message) bool, deliver func(types.NodeID, codec.Message)) {
	type bound struct {
		parent int32
		verify func(codec.Message) bool
	}
	free := sync.Pool{New: func() any {
		b := &bound{parent: -1}
		b.verify = newVerifier(&b.parent)
		return b
	}}
	onSubmit = func(msg codec.Message) { np.stamp(np.submitted, msg) }
	verify = func(msg codec.Message) bool {
		b := free.Get().(*bound)
		_, req := classify(msg)
		b.parent = np.tr.begin(kindPoolVerify, np.id, -1, req)
		np.waited(np.submitted, msg, b.parent)
		ok := b.verify(msg)
		np.tr.end(b.parent)
		b.parent = -1
		free.Put(b)
		return ok
	}
	deliver = func(from types.NodeID, msg codec.Message) {
		np.stamp(np.delivered, msg)
		node.Deliver(from, msg)
	}
	return onSubmit, verify, deliver
}
