package transport

import (
	"runtime"
	"sync"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// VerifyPool fans inbound-message signature verification out to a small
// worker pool before messages reach a node's single-threaded process loop.
// Independent batch signatures (e.g. the leader and client signatures of
// distinct SPECORDER batches) verify in parallel across cores; the process
// loop then skips the checks the pool already performed. Messages the
// verifier rejects are dropped — indistinguishable from network loss, which
// the protocols already tolerate.
//
// Messages from one sender are delivered in the order they were submitted:
// each worker has its own lane and a sender's messages all take the same one,
// so a client's pipelined REQUESTs reach the process loop as they left it.
// Messages from different senders may overtake each other, which every
// protocol in this repository tolerates (the network orders nothing between
// senders either).
type VerifyPool struct {
	verify  func(msg codec.Message) bool
	deliver func(from types.NodeID, msg codec.Message)
	lanes   []chan verifyJob

	// mu guards closed against concurrent Submit/Close: on the in-process
	// mesh, peers (and delayed-delivery links) may still be sending when a
	// node detaches and closes its pool.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

type verifyJob struct {
	from types.NodeID
	msg  codec.Message
}

// NewVerifyPool starts `workers` verification goroutines (<= 0 selects
// GOMAXPROCS). verify reports whether a message's signatures check out —
// it must be safe for concurrent use and should mark the message so the
// process loop can skip re-verification; a nil verify accepts everything
// (protocol engines without a transport-side pre-verifier still get the
// pool's delivery decoupling). deliver forwards accepted messages
// (typically LiveNode.Deliver).
func NewVerifyPool(workers int, verify func(msg codec.Message) bool, deliver func(from types.NodeID, msg codec.Message)) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if verify == nil {
		verify = func(codec.Message) bool { return true }
	}
	p := &VerifyPool{
		verify:  verify,
		deliver: deliver,
		lanes:   make([]chan verifyJob, workers),
	}
	for i := range p.lanes {
		// Four messages of slack per worker, so that a connection reader is
		// not stopped by every verification that takes a little longer.
		p.lanes[i] = make(chan verifyJob, 4)
		p.wg.Add(1)
		go p.worker(p.lanes[i])
	}
	return p
}

// Submit enqueues one inbound message for verification and delivery on its
// sender's lane. It blocks while that lane is full, applying backpressure
// to the sender (the TCP connection reader, or the sending node on the
// mesh). Submitting to a closed pool drops the message, like a
// closing socket. Safe for concurrent use with Close: a Submit blocked on
// a full lane holds the read lock, and Close waits for it — the workers
// keep draining until the lanes actually close, so the send always
// completes.
func (p *VerifyPool) Submit(from types.NodeID, msg codec.Message) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return
	}
	p.lanes[uint64(from)%uint64(len(p.lanes))] <- verifyJob{from: from, msg: msg}
}

func (p *VerifyPool) worker(lane chan verifyJob) {
	defer p.wg.Done()
	for job := range lane {
		if p.verify(job.msg) {
			p.deliver(job.from, job.msg)
		}
	}
}

// Close drains the lanes and stops the workers; closing twice is a no-op.
func (p *VerifyPool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, lane := range p.lanes {
			close(lane)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
