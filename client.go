package ezbft

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/transport"
	"ezbft/internal/workload"
)

// ErrClientClosed reports use of a client whose Close was called; commands
// in flight when the client closes also fail with it.
var ErrClientClosed = errors.New("ezbft: client closed")

// PipelineWindow is how many consecutive commands of one client the
// protocols carry at once: replicas keep what recognises a request (its
// cached reply, its exactly-once record) this many timestamps behind the
// client's newest and refuse older ones, so a client never lets its
// unresolved commands span more.
const PipelineWindow = workload.PipelineWindow

// ClientStats is the protocol-neutral snapshot of a client's counters
// (fast/slow decisions, retries, POMs, and how often the slow-path timer was
// waited out or skipped for a replica that has stopped answering).
// Protocols without a fast/slow split count every completion as a slow
// decision.
type ClientStats = engine.ClientStats

// Future is the completion handle for one in-flight command submitted with
// Client.Submit. A client may have any number of futures outstanding; each
// resolves when the protocol commits its command. At most PipelineWindow
// consecutive commands are in the protocol at once: the rest wait inside the
// client, in submission order, for the oldest unresolved one.
type Future struct {
	client *Client
	done   chan struct{}
	comp   workload.Completion
}

// Done returns a channel that is closed when the command completes. It
// does not close if the client shuts down first — select on it together
// with a context or use Wait, which also observes client shutdown.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the command completes, the context is cancelled, or
// the client (or its cluster) closes — whichever comes first. On
// cancellation it returns ctx.Err(); the command itself cannot be
// withdrawn from the protocol and may still commit afterwards. On client
// shutdown it returns ErrClientClosed or ErrClusterClosed.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.comp.Result, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	case <-f.client.node.Done():
		// The completion may have raced the shutdown; prefer it.
		select {
		case <-f.done:
			return f.comp.Result, nil
		default:
		}
		return Result{}, f.client.closeReason()
	}
}

// FastPath reports whether the command committed on the protocol's fast
// path (always false for protocols without one). Valid only after Done.
func (f *Future) FastPath() bool { return f.comp.FastPath }

// Latency returns the submit-to-completion latency. Valid only after Done.
func (f *Future) Latency() time.Duration { return f.comp.Latency }

// Client is a context-aware protocol client running on a live substrate
// (the in-process mesh of a LiveCluster, or TCP via NewTCPClient). It
// supports two submission styles:
//
//   - Execute: submit one command and block until it commits — the paper's
//     closed-loop client, now honoring context cancellation and deadlines.
//   - Submit: enqueue a command and receive a Future, keeping many
//     commands in flight per client (up to PipelineWindow in the protocol,
//     the rest queued behind them) — the open-loop style
//     high-throughput deployments need. Completions correlate to futures
//     through the per-client timestamps the protocols already stamp on
//     every command, so no wire format changes.
//
// A Client is safe for concurrent use by multiple goroutines.
type Client struct {
	node   *transport.LiveNode
	inner  engine.Client
	bridge *futureBridge

	closeOnce sync.Once
	reason    atomic.Value // error: why the client stopped
	detach    func()       // substrate-specific teardown (mesh detach, TCP peer close)
}

// LiveClient is the client type LiveCluster.NewClient returns. It is the
// same pipelined Client the TCP substrate uses; the alias survives from
// the earlier blocking-only API.
type LiveClient = Client

// newClient wires an engine client, its hosting live node, and the future
// bridge together; the node must have been built with the bridge as the
// client's driver and is started here.
func newClient(node *transport.LiveNode, inner engine.Client, bridge *futureBridge, detach func()) *Client {
	c := &Client{node: node, inner: inner, bridge: bridge, detach: detach}
	node.Start()
	return c
}

// ClientID returns the client's protocol identifier.
func (c *Client) ClientID() ClientID { return c.inner.ClientID() }

// Execute submits one command and blocks until the protocol commits it,
// the context is cancelled, or the client (or cluster) closes. It is
// Submit followed by Wait; concurrent Executes pipeline like Submits.
func (c *Client) Execute(ctx context.Context, cmd Command) (Result, error) {
	f, err := c.Submit(ctx, cmd)
	if err != nil {
		return Result{}, err
	}
	return f.Wait(ctx)
}

// Submit enqueues one command on the client's process loop and returns a
// Future resolving when the protocol commits it. Any number of commands
// may be submitted; the protocols order and execute them concurrently and
// each future resolves with its own command's result. The client hands the
// protocol a command only while its timestamp stays within PipelineWindow
// of the oldest unresolved one — replicas keep what recognises a request
// that far back and no further — and holds later ones, in order, until that
// one resolves; a held command's Latency counts from when it was handed
// over. Submit honors the context even while enqueueing, so a wedged
// process loop cannot hold the caller past its deadline.
func (c *Client) Submit(ctx context.Context, cmd Command) (*Future, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := &Future{client: c, done: make(chan struct{})}
	call := func(pctx proc.Context) { c.bridge.submit(pctx, c.inner, cmd, f) }
	// Only a full call queue waits on the context: asking a deadline
	// context for its Done channel makes it allocate one.
	queued, err := c.node.TryInject(call)
	if err == nil && !queued {
		err = c.node.InjectAbort(ctx.Done(), call)
	}
	switch {
	case err == nil:
		return f, nil
	case errors.Is(err, transport.ErrAborted):
		return nil, ctx.Err()
	default:
		return nil, c.closeReason()
	}
}

// Stats returns the client's protocol counters (fast/slow decisions,
// retries, POMs), protocol-neutral across engines. The snapshot is taken
// on the client's process loop (the counters belong to the single-threaded
// protocol client), so it is safe to call concurrently with in-flight
// commands; on a closed client it reads directly after the loop exits.
func (c *Client) Stats() ClientStats {
	ch := make(chan ClientStats, 1)
	if err := c.node.Inject(func(proc.Context) { ch <- c.inner.ClientStats() }); err == nil {
		select {
		case s := <-ch:
			return s
		case <-c.node.Done():
			// Stopped before the snapshot ran; fall through.
		}
	}
	// The node is stopping: wait for its loop to exit, after which no
	// handler mutates the counters and a direct read is safe.
	c.node.Join()
	return c.inner.ClientStats()
}

// Close detaches the client and stops its node; in-flight commands fail
// with ErrClientClosed. Closing an individual client never affects its
// cluster or other clients; closing twice is a no-op.
func (c *Client) Close() error {
	c.shutdown(ErrClientClosed)
	return nil
}

// shutdown stops the client once, recording why, so waiters report the
// right error (ErrClientClosed for an individual Close, ErrClusterClosed
// when the whole cluster went down).
func (c *Client) shutdown(reason error) {
	c.closeOnce.Do(func() {
		c.reason.Store(reason)
		c.node.Stop()
		if c.detach != nil {
			c.detach()
		}
	})
}

func (c *Client) closeReason() error {
	if err, ok := c.reason.Load().(error); ok {
		return err
	}
	return ErrClientClosed
}

// futureBridge is the workload.Driver behind every live Client: it routes
// each completion to the future registered under the completion's
// per-client command timestamp. Registration happens on the node's process
// loop in the same injected call that submits the command, so a completion
// can never precede its registration. It also keeps the client's half of
// the workload.PipelineWindow contract: a command whose timestamp would be
// a window past the oldest unresolved one is held and issued, in
// submission order, as completions make room.
type futureBridge struct {
	mu      sync.Mutex
	waiters map[uint64]*Future

	// Touched only on the node's process loop.
	out  workload.Outstanding
	held []heldSubmit
}

// heldSubmit is a command waiting for room in the pipeline window.
type heldSubmit struct {
	cmd Command
	f   *Future
}

var _ workload.Driver = (*futureBridge)(nil)

func newFutureBridge() *futureBridge {
	return &futureBridge{waiters: make(map[uint64]*Future)}
}

// submit hands the command to the protocol client, or queues it behind the
// commands already held if the window is full. Runs on the process loop.
func (b *futureBridge) submit(ctx proc.Context, s workload.Submitter, cmd Command, f *Future) {
	if len(b.held) > 0 || !b.out.Room() {
		b.held = append(b.held, heldSubmit{cmd, f})
		return
	}
	b.issue(ctx, s, cmd, f)
}

func (b *futureBridge) issue(ctx proc.Context, s workload.Submitter, cmd Command, f *Future) {
	ts := s.Submit(ctx, cmd)
	b.out.Add(ts)
	b.mu.Lock()
	b.waiters[ts] = f
	b.mu.Unlock()
}

// Start implements workload.Driver.
func (b *futureBridge) Start(proc.Context, workload.Submitter) {}

// Completed implements workload.Driver: resolve the command's future and
// issue whatever held commands the completion made room for.
func (b *futureBridge) Completed(ctx proc.Context, s workload.Submitter, comp workload.Completion) {
	b.mu.Lock()
	f := b.waiters[comp.Cmd.Timestamp]
	delete(b.waiters, comp.Cmd.Timestamp)
	b.mu.Unlock()
	if f != nil {
		f.comp = comp
		close(f.done)
	}
	b.out.Remove(comp.Cmd.Timestamp)
	for len(b.held) > 0 && b.out.Room() {
		next := b.held[0]
		b.held[0] = heldSubmit{}
		b.held = b.held[1:]
		b.issue(ctx, s, next.cmd, next.f)
	}
}

// OnTimer implements workload.Driver.
func (b *futureBridge) OnTimer(proc.Context, workload.Submitter, proc.TimerID) {}
