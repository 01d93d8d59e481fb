// Package transport hosts protocol processes in real time: the same
// proc.Process implementations that run on the discrete-event simulator run
// here on goroutines with wall-clock timers, connected by an in-process
// mesh or by TCP. This is the substrate for the live binaries
// (cmd/ezbft-server, cmd/ezbft-client) and the tcpcluster example.
//
// # The inbound verification pipeline
//
// Every node on a live substrate can sit behind a VerifyPool: inbound
// messages are decoded (TCP) or received (mesh), then handed to a small
// worker pool that runs the protocol engine's inbound pre-verifier — a
// predicate that checks every signature the node's process loop would
// otherwise check unconditionally, marks the message (codec.Verified), and
// accepts or drops it. Signature work thus runs concurrently across
// messages and cores while each process loop stays single-threaded and
// nearly crypto-free; the loop re-checks only unmarked messages, which is
// what sim-delivered (and test-injected) messages are, so the simulator's
// charged cost model and all paper-reproduction figures are untouched.
//
// Ordering guarantees: every link is FIFO. On the mesh, with or without a
// delay, one sender's messages to one receiver arrive in the order they
// were sent; on TCP they do for as long as the sender's connection lasts.
// The pool keeps that order (a lane per worker, a sender always on the same
// lane), so a client's pipelined requests reach the process loop as they
// left the client. Messages of different senders may interleave, and
// verification failures are dropped silently. Both are behaviours the
// protocols already tolerate from the network itself — ezBFT's
// instance-space contiguity buffer reassembles SPECORDER order explicitly,
// and the baselines buffer out-of-order sequence numbers. Within one
// message all checks complete before delivery, so a process never observes
// a partially verified frame. Messages a predicate cannot vouch for
// (signatures the loop checks only conditionally) pass through unmarked
// rather than being dropped, keeping pool-on and pool-off behaviour
// byte-for-byte equivalent.
package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// ErrClosed reports use of a closed node or transport.
var ErrClosed = errors.New("transport: closed")

// ErrAborted reports an injection abandoned because the caller's abort
// channel fired before the node's call queue accepted it.
var ErrAborted = errors.New("transport: injection aborted")

// Sender delivers messages to remote nodes.
type Sender interface {
	Send(from, to types.NodeID, msg codec.Message) error
}

// MultiSender is optionally implemented by Senders with an encode-once
// broadcast: one marshal of msg serves every destination (TCP writes the
// same frame bytes to each peer socket; the in-process mesh hands every
// recipient the same decoded value under a single registry lookup).
// Per-destination failures degrade to message loss, exactly like Send.
type MultiSender interface {
	Sender
	SendAll(from types.NodeID, tos []types.NodeID, msg codec.Message) error
}

// envelope is one queued delivery.
type envelope struct {
	from types.NodeID
	msg  codec.Message
}

// LiveNode runs one proc.Process in real time. All handler invocations —
// Init, deliveries, injected calls and timers — happen on one goroutine,
// preserving the single-threaded process contract; messages are injected
// through Deliver and arbitrary calls through Inject.
//
// Timers are values, not goroutines: the node keeps every armed timer as a
// (deadline, arming order, id) triple in one min-heap with an index by id,
// and one time.Timer wakes the loop at the earliest deadline — sim.Kernel's
// event queue on the wall clock. SetTimer and CancelTimer are only reachable
// from handlers (the proc.Context is never handed elsewhere), so the heap
// needs no lock, and at steady state neither allocates. A cancel leaves the
// wake alone: an early wake finds nothing due and sets it again. On a wake
// the loop runs the due timers one at a time in deadline order and reads the
// heap again after each OnTimer, so a timer that a handler cancels or
// re-arms after it came due does not fire at its old deadline.
type LiveNode struct {
	p      proc.Process
	sender Sender
	start  time.Time
	rng    *rand.Rand

	inbox chan envelope
	calls chan func(ctx proc.Context)

	// Touched only on the loop goroutine.
	timers timerHeap
	wake   *time.Timer   // set for wakeAt while waking
	wakeAt time.Duration // since start
	waking bool

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewLiveNode creates (but does not start) a live node.
func NewLiveNode(p proc.Process, sender Sender, seed int64) *LiveNode {
	wake := time.NewTimer(time.Hour)
	wake.Stop()
	return &LiveNode{
		p:      p,
		sender: sender,
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(seed)),
		inbox:  make(chan envelope, 1024),
		calls:  make(chan func(ctx proc.Context), 64),
		timers: timerHeap{pos: make(map[proc.TimerID]int)},
		wake:   wake,
		done:   make(chan struct{}),
	}
}

// SetSender installs the outbound transport; it must be called before
// Start when the transport needs the node's delivery callback first
// (e.g. TCP peers).
func (n *LiveNode) SetSender(s Sender) { n.sender = s }

// Start runs the node's event loop (Init, then deliveries and timers).
func (n *LiveNode) Start() {
	n.wg.Add(1)
	go n.loop()
}

// Done returns a channel closed when the node stops; external callers
// waiting on process results select on it to observe shutdown.
func (n *LiveNode) Done() <-chan struct{} { return n.done }

// Stop terminates the event loop and waits for it to exit. Once it returns
// no handler runs again, and no timer is left set.
func (n *LiveNode) Stop() {
	n.stopOnce.Do(func() { close(n.done) })
	n.wg.Wait()
}

// Deliver enqueues a message for the process; it drops the message if the
// node is stopped or the queue is full (the network is allowed to drop).
func (n *LiveNode) Deliver(from types.NodeID, msg codec.Message) {
	select {
	case n.inbox <- envelope{from: from, msg: msg}:
	case <-n.done:
	default:
		// Queue full: shed load like a congested network path.
	}
}

// Inject schedules fn to run on the node's event loop with a valid context;
// used to bridge external calls (e.g. blocking client submissions).
func (n *LiveNode) Inject(fn func(ctx proc.Context)) error {
	return n.InjectAbort(nil, fn)
}

// TryInject is Inject without waiting: it reports false, and leaves fn
// unscheduled, when the node's call queue is full.
func (n *LiveNode) TryInject(fn func(ctx proc.Context)) (bool, error) {
	select {
	case <-n.done:
		return false, ErrClosed
	default:
	}
	select {
	case n.calls <- fn:
		return true, nil
	default:
		return false, nil
	}
}

// InjectAbort is Inject with an abort channel: it gives up with ErrAborted
// if abort fires while the call queue is full, so callers with deadlines
// (context-aware client submissions) never block past them on a wedged
// process loop. A nil abort never fires.
func (n *LiveNode) InjectAbort(abort <-chan struct{}, fn func(ctx proc.Context)) error {
	// Check done first: a buffered calls channel would otherwise accept
	// injections into a stopped node.
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	select {
	case n.calls <- fn:
		return nil
	case <-n.done:
		return ErrClosed
	case <-abort:
		return ErrAborted
	}
}

// Join blocks until the node's event loop goroutine has exited; callers
// must observe Done first (Join before Stop blocks for the node's whole
// lifetime). After Join, reading state owned by the process is safe — no
// handler can be running concurrently.
func (n *LiveNode) Join() { n.wg.Wait() }

func (n *LiveNode) loop() {
	defer n.wg.Done()
	defer n.wake.Stop()
	ctx := &liveCtx{n: n}
	n.p.Init(ctx)
	for {
		select {
		case <-n.done:
			return
		case env := <-n.inbox:
			n.p.Receive(ctx, env.from, env.msg)
		case fn := <-n.calls:
			fn(ctx)
		case <-n.wake.C:
			n.waking = false
			n.runDue(ctx)
		}
	}
}

// runDue fires the timers due by now, one at a time in deadline order. A
// timer armed during the pass waits for the next wake, so a handler that
// re-arms its own timer with no delay cannot hold the loop.
func (n *LiveNode) runDue(ctx proc.Context) {
	now, last := time.Since(n.start), n.timers.seq
	for len(n.timers.h) > 0 {
		t := n.timers.h[0]
		if t.at > now || t.seq > last {
			break
		}
		n.timers.remove(0)
		n.p.OnTimer(ctx, t.id)
	}
	n.armWake()
}

// armWake sets the wake for the earliest deadline unless it is already set
// for that deadline or an earlier one.
func (n *LiveNode) armWake() {
	if len(n.timers.h) == 0 {
		return
	}
	at := n.timers.h[0].at
	if n.waking && n.wakeAt <= at {
		return
	}
	n.wake.Reset(at - time.Since(n.start))
	n.wakeAt, n.waking = at, true
}

// armedTimer is one armed timer: it is due at at (since the node's start);
// seq, the arming order, breaks ties between timers due together.
type armedTimer struct {
	at  time.Duration
	seq uint64
	id  proc.TimerID
}

// timerHeap is a min-heap of armed timers by (at, seq), with each id's
// position in it, so a re-arm or a cancel finds its timer without a scan.
type timerHeap struct {
	h   []armedTimer
	pos map[proc.TimerID]int
	seq uint64
}

// set arms id for at, replacing its earlier deadline if it has one.
func (q *timerHeap) set(id proc.TimerID, at time.Duration) {
	q.seq++
	t := armedTimer{at: at, seq: q.seq, id: id}
	if i, ok := q.pos[id]; ok {
		q.h[i] = t
		q.fix(i)
		return
	}
	q.h = append(q.h, t)
	q.pos[id] = len(q.h) - 1
	q.up(len(q.h) - 1)
}

// cancel disarms id, if it is armed.
func (q *timerHeap) cancel(id proc.TimerID) {
	if i, ok := q.pos[id]; ok {
		q.remove(i)
	}
}

// remove takes the timer at heap position i out.
func (q *timerHeap) remove(i int) {
	last := len(q.h) - 1
	delete(q.pos, q.h[i].id)
	if i != last {
		q.h[i] = q.h[last]
		q.pos[q.h[i].id] = i
	}
	q.h = q.h[:last]
	if i != last {
		q.fix(i)
	}
}

func (q *timerHeap) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *timerHeap) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.pos[q.h[i].id] = i
	q.pos[q.h[j].id] = j
}

// fix restores the heap order after the timer at i changed.
func (q *timerHeap) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts the timer at i toward the leaves and reports whether it moved.
func (q *timerHeap) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(q.h) {
			break
		}
		if r := c + 1; r < len(q.h) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > start
}

// liveCtx implements proc.Context on wall-clock time.
type liveCtx struct {
	n *LiveNode
}

var _ proc.Context = (*liveCtx)(nil)

// Now implements proc.Context.
func (c *liveCtx) Now() time.Duration { return time.Since(c.n.start) }

// Send implements proc.Context.
func (c *liveCtx) Send(to types.NodeID, msg codec.Message) {
	// Errors are indistinguishable from message loss to the protocol.
	_ = c.n.sender.Send(c.n.p.ID(), to, msg)
}

// Broadcast implements proc.Broadcaster: one encode serves every
// destination when the transport supports it.
func (c *liveCtx) Broadcast(tos []types.NodeID, msg codec.Message) {
	if ms, ok := c.n.sender.(MultiSender); ok {
		_ = ms.SendAll(c.n.p.ID(), tos, msg)
		return
	}
	for _, to := range tos {
		_ = c.n.sender.Send(c.n.p.ID(), to, msg)
	}
}

var _ proc.Broadcaster = (*liveCtx)(nil)

// SetTimer implements proc.Context.
func (c *liveCtx) SetTimer(id proc.TimerID, d time.Duration) {
	n := c.n
	n.timers.set(id, time.Since(n.start)+d)
	n.armWake()
}

// CancelTimer implements proc.Context.
func (c *liveCtx) CancelTimer(id proc.TimerID) { c.n.timers.cancel(id) }

// Charge implements proc.Context (real work takes real time here).
func (c *liveCtx) Charge(time.Duration) {}

// Rand implements proc.Context.
func (c *liveCtx) Rand() *rand.Rand { return c.n.rng }

// Mesh is an in-process Sender connecting live nodes directly (optionally
// with a simulated delay), for single-process multi-node deployments and
// tests. Nodes attach either bare (messages go straight to the node's
// inbox) or behind a VerifyPool (messages pass the node's inbound signature
// pre-verifier first, off the sender's and receiver's process loops).
//
// Every (sender, receiver) pair is a FIFO link: with no delay a message is
// delivered on the sender's goroutine before Send returns; with a delay
// the link queues it and one goroutine, alive only while the link has
// messages in flight, delivers them in send order once each is due. Mesh
// holds no goroutine for an idle link and needs no Close.
type Mesh struct {
	mu    sync.RWMutex
	nodes map[types.NodeID]meshEntry
	links map[linkKey]*meshLink
	delay time.Duration
}

// meshEntry is one attached node: its delivery path plus the node identity
// Detach matches on.
type meshEntry struct {
	node    *LiveNode
	deliver func(from types.NodeID, msg codec.Message)
}

var _ MultiSender = (*Mesh)(nil)

// NewMesh creates an empty mesh that delivers every message delay after
// it was sent (0 = at once, on the sender's goroutine), in send order on
// each (sender, receiver) link.
func NewMesh(delay time.Duration) *Mesh {
	return &Mesh{
		nodes: make(map[types.NodeID]meshEntry),
		links: make(map[linkKey]*meshLink),
		delay: delay,
	}
}

// Attach registers a node; inbound messages go straight to its inbox.
func (m *Mesh) Attach(n *LiveNode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[n.p.ID()] = meshEntry{node: n, deliver: n.Deliver}
}

// AttachPool registers a node behind a verification pool: inbound messages
// are submitted to the pool, whose workers verify (and mark) them before
// delivering to the node. The caller owns the pool's lifecycle; close it
// after detaching the node.
func (m *Mesh) AttachPool(n *LiveNode, pool *VerifyPool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[n.p.ID()] = meshEntry{node: n, deliver: pool.Submit}
}

// Detach unregisters a node; subsequent sends to it are dropped like any
// unknown destination, while messages already in flight still reach the
// entry they were sent to. Detaching an unregistered node is a no-op.
func (m *Mesh) Detach(n *LiveNode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.nodes[n.p.ID()]; ok && e.node == n {
		delete(m.nodes, n.p.ID())
	}
}

// Send implements Sender.
func (m *Mesh) Send(from, to types.NodeID, msg codec.Message) error {
	m.send(from, to, msg, m.due())
	return nil
}

// SendAll implements MultiSender: every recipient receives the same decoded
// message value, due at the same instant. (Verification marks on the
// shared value are atomic and receiver-independent; see codec.Verified.)
func (m *Mesh) SendAll(from types.NodeID, tos []types.NodeID, msg codec.Message) error {
	due := m.due()
	for _, to := range tos {
		m.send(from, to, msg, due)
	}
	return nil
}

// due is when a message sent now is delivered (zero without a delay).
func (m *Mesh) due() time.Time {
	if m.delay <= 0 {
		return time.Time{}
	}
	return time.Now().Add(m.delay)
}

// send delivers msg now (no delay) or queues it on the from→to link. The
// registry lock is never held while delivering: a delivery may block on a
// full verify-pool lane.
func (m *Mesh) send(from, to types.NodeID, msg codec.Message, due time.Time) {
	key := linkKey{from: from, to: to}
	var l *meshLink
	m.mu.RLock()
	dst, ok := m.nodes[to]
	if ok && m.delay > 0 {
		l = m.links[key]
	}
	m.mu.RUnlock()
	switch {
	case !ok:
		// Unknown destination: dropped like the network would.
	case m.delay <= 0:
		dst.deliver(from, msg)
	default:
		if l == nil {
			l = m.link(key)
		}
		l.push(linkMsg{due: due, deliver: dst.deliver, msg: msg})
	}
}

// link returns the from→to link, creating it on first use. Links are kept
// for the mesh's lifetime: one is a few words while idle, and a cluster's
// node identities are bounded.
func (m *Mesh) link(key linkKey) *meshLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.links[key]
	if l == nil {
		l = &meshLink{from: key.from, timer: time.NewTimer(time.Hour)}
		l.timer.Stop()
		l.drainFn = l.drain
		m.links[key] = l
	}
	return l
}

// linkKey names one directed link.
type linkKey struct{ from, to types.NodeID }

// linkMsg is one message in flight on a link. deliver is the destination
// entry's path as it was at send time, so a message sent before a Detach
// and re-Attach reaches the node it was sent to.
type linkMsg struct {
	due     time.Time
	deliver func(from types.NodeID, msg codec.Message)
	msg     codec.Message
}

// meshLink is one delayed (sender, receiver) link: a FIFO queue drained by
// one goroutine while it is non-empty. A mesh's delay is fixed, so the
// queue is also in due order and the head is always the next message due.
type meshLink struct {
	from types.NodeID

	mu      sync.Mutex
	q       []linkMsg // q[head:] are in flight
	head    int
	running bool // a drain goroutine owns the queue

	timer   *time.Timer // stopped while idle; only the drain goroutine resets it
	drainFn func()      // l.drain, bound once so starting a drain allocates nothing
}

// push appends m and starts the drain goroutine if the link was idle.
func (l *meshLink) push(m linkMsg) {
	l.mu.Lock()
	if len(l.q) == cap(l.q) && l.head >= len(l.q)/2 {
		// Compact instead of growing: at least half the storage is
		// delivered entries, so the copy is paid for by the pushes that
		// filled it and a link that never empties stays bounded by its
		// peak in-flight count.
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, m)
	start := !l.running
	l.running = true
	l.mu.Unlock()
	if start {
		go l.drainFn()
	}
}

// drain delivers the queue in order, each message once it is due, and
// exits when the queue is empty; the next push starts it again.
func (l *meshLink) drain() {
	l.mu.Lock()
	for l.head < len(l.q) {
		m := l.q[l.head]
		if wait := time.Until(m.due); wait > 0 {
			l.mu.Unlock()
			l.timer.Reset(wait)
			<-l.timer.C
			l.mu.Lock()
			continue
		}
		l.q[l.head] = linkMsg{} // drop the references; the storage is reused
		l.head++
		l.mu.Unlock()
		m.deliver(l.from, m.msg)
		l.mu.Lock()
	}
	l.q, l.head = l.q[:0], 0
	l.running = false
	l.mu.Unlock()
}
