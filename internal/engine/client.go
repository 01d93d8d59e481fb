package engine

import (
	"fmt"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// Client-side defaults; experiments tune these to their topology.
const (
	DefaultSlowPathTimeout = 400 * time.Millisecond
	DefaultRetryTimeout    = 4 * time.Second
)

// ClientConfig configures any protocol's client (ClientCore). Zero timeouts
// select the defaults.
type ClientConfig struct {
	ID types.ClientID
	// N is the cluster size (3f+1).
	N int
	// Leader is the replica a new request goes to: ezBFT's command-leader
	// (the client's nearest replica), the primary the client first believes
	// in for the other protocols, which learn later views from replies.
	Leader types.ReplicaID
	// Auth signs requests and verifies replica replies.
	Auth auth.Authenticator
	// Costs holds virtual processing costs for simulation.
	Costs proc.Costs
	// Driver decides what to submit and receives completions.
	Driver workload.Driver
	// SlowPathTimeout is how long a speculative client (ezBFT, Zyzzyva)
	// waits for the replies its fast path needs before settling for a slow
	// quorum; ezBFT's paper step 4.2.
	SlowPathTimeout time.Duration
	// RetryTimeout is how long a request may go without completing before
	// the client retransmits it to every replica; ezBFT's paper step 4.3.
	RetryTimeout time.Duration
	// DisableFastPath makes an ezBFT client ignore fast-path opportunities
	// and always commit through the slow path. Ablation only: it quantifies
	// what speculative execution plus the 3f+1 fast quorum buy.
	DisableFastPath bool
}

// Config returns the options as a client configuration whose Leader is the
// believed primary; a LatencyBound sets the slow-path timeout to it and the
// retry timeout to eight of it.
func (o ClientOptions) Config() ClientConfig {
	c := ClientConfig{ID: o.ID, N: o.N, Leader: o.Primary, Auth: o.Auth, Costs: o.Costs, Driver: o.Driver,
		DisableFastPath: o.DisableFastPath}
	if o.LatencyBound > 0 {
		c.SlowPathTimeout, c.RetryTimeout = o.LatencyBound, 8*o.LatencyBound
	}
	return c
}

// Pending is the core's record of one outstanding request; a protocol's own
// record of a request embeds it.
type Pending struct {
	Cmd     types.Command
	Digest  types.Digest  // Cmd.Digest(), computed once per request
	Req     codec.Message // the signed request as first sent
	Issued  time.Duration
	Retries int
}

func (p *Pending) core() *Pending { return p }

// PendingRef is the pointer type of a protocol's request record.
type PendingRef[T any] interface {
	*T
	core() *Pending
}

// SignedRequest is the surface a protocol's REQUEST gives the client core.
type SignedRequest interface {
	codec.Message
	BodyMarshaler
	// Command returns the request's command, in place.
	Command() *types.Command
	SetSignature(sig []byte)
}

// TimerKind tells one request's timers apart.
type TimerKind uint64

// The request timers: the slow-path timer of a speculative client (ezBFT's
// step 4.2, Zyzzyva's commit certificate) and the retry timer.
const (
	SlowTimer  TimerKind = 1
	RetryTimer TimerKind = 2
)

// timerID lays out request ts's timer of kind k. Below timestamp 2^60 it
// stays below workload.DriverTimerBase.
func timerID(ts uint64, k TimerKind) proc.TimerID { return proc.TimerID(ts*4 + uint64(k)) }

// ClientCore is what every protocol's client shares, whatever rule decides
// its requests: identity, the timestamp counter, the table of outstanding
// requests (T is the protocol's record of one, P a pointer to it), the
// counters, signing, reply verification, the request timers, completion
// and the retransmission PBFT, FaB and Zyzzyva use. A protocol's client
// embeds it and adds Submit, Receive and OnTimer.
type ClientCore[T any, P PendingRef[T]] struct {
	Cfg      ClientConfig
	F        int            // faults tolerated, (N-1)/3
	Replicas []types.NodeID // every replica's address, for broadcasts
	Pending  map[uint64]P   // outstanding requests by timestamp
	Count    ClientStats
	// LastTS is the latest timestamp handed out; the next request gets
	// LastTS+1.
	LastTS uint64

	self     workload.Submitter // the embedding client, as its driver sees it
	slowPath bool
}

// Setup validates cfg, fills in the default timeouts and readies the core of
// client self; name prefixes configuration errors. A client with slowPath
// arms a slow-path timer for each request besides its retry timer.
func (c *ClientCore[T, P]) Setup(name string, cfg ClientConfig, self workload.Submitter, slowPath bool) error {
	if cfg.N < 4 || (cfg.N-1)%3 != 0 {
		return fmt.Errorf("%s: cluster size must be 3f+1, got %d", name, cfg.N)
	}
	if cfg.Leader < 0 || int(cfg.Leader) >= cfg.N {
		return fmt.Errorf("%s: leader %d out of range", name, cfg.Leader)
	}
	if cfg.Auth == nil || cfg.Driver == nil {
		return fmt.Errorf("%s: auth and driver are required", name)
	}
	if cfg.SlowPathTimeout <= 0 {
		cfg.SlowPathTimeout = DefaultSlowPathTimeout
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = DefaultRetryTimeout
	}
	*c = ClientCore[T, P]{Cfg: cfg, F: (cfg.N - 1) / 3, Pending: make(map[uint64]P), self: self, slowPath: slowPath}
	for i := 0; i < cfg.N; i++ {
		c.Replicas = append(c.Replicas, types.ReplicaNode(types.ReplicaID(i)))
	}
	return nil
}

// ID implements proc.Process.
func (c *ClientCore[T, P]) ID() types.NodeID { return types.ClientNode(c.Cfg.ID) }

// ClientID implements workload.Submitter.
func (c *ClientCore[T, P]) ClientID() types.ClientID { return c.Cfg.ID }

// InFlight implements workload.Submitter.
func (c *ClientCore[T, P]) InFlight() int { return len(c.Pending) }

// ClientStats implements Client.
func (c *ClientCore[T, P]) ClientStats() ClientStats { return c.Count }

// Init implements proc.Process.
func (c *ClientCore[T, P]) Init(ctx proc.Context) { c.Cfg.Driver.Start(ctx, c.self) }

// Sign charges one signature and returns the client's signature over m.
func (c *ClientCore[T, P]) Sign(ctx proc.Context, m BodyMarshaler) []byte {
	c.Cfg.Costs.ChargeSign(ctx)
	return SignBody(c.Cfg.Auth, m)
}

// Verified reports whether replica r signed m with sig: at once when the
// transport verified m already, else charged and checked here.
func (c *ClientCore[T, P]) Verified(ctx proc.Context, r types.ReplicaID, m SignedMessage, sig []byte) bool {
	if m.SigVerified() {
		return true
	}
	c.Cfg.Costs.ChargeVerify(ctx, 1)
	return VerifyBody(c.Cfg.Auth, types.ReplicaNode(r), m, sig) == nil
}

// Issue starts a request: it stamps req's command with the client's identity
// and next timestamp, signs req, records p as the request's entry, sends req
// to replica to and arms the request's timers. It returns the timestamp.
func (c *ClientCore[T, P]) Issue(ctx proc.Context, p P, req SignedRequest, to types.ReplicaID) uint64 {
	c.LastTS++
	cmd := req.Command()
	cmd.Client, cmd.Timestamp = c.Cfg.ID, c.LastTS
	req.SetSignature(c.Sign(ctx, req))
	*p.core() = Pending{Cmd: *cmd, Digest: cmd.Digest(), Req: req, Issued: ctx.Now()}
	c.Pending[c.LastTS] = p
	c.Count.Submitted++
	ctx.Send(types.ReplicaNode(to), req)
	if c.slowPath {
		c.Arm(ctx, p, SlowTimer, c.Cfg.SlowPathTimeout)
	}
	c.Arm(ctx, p, RetryTimer, c.Cfg.RetryTimeout)
	return c.LastTS
}

// Arm (re)arms p's timer of kind k to fire after d.
func (c *ClientCore[T, P]) Arm(ctx proc.Context, p P, k TimerKind, d time.Duration) {
	ctx.SetTimer(timerID(p.core().Cmd.Timestamp, k), d)
}

// Expired dispatches a timer: a driver's goes to the driver, and a request's
// is returned as its kind and the request's record. Kind 0 leaves the
// protocol nothing to do.
func (c *ClientCore[T, P]) Expired(ctx proc.Context, id proc.TimerID) (TimerKind, P) {
	if id >= workload.DriverTimerBase {
		c.Cfg.Driver.OnTimer(ctx, c.self, id)
		return 0, nil
	}
	if p, ok := c.Pending[uint64(id)/4]; ok {
		return TimerKind(id % 4), p
	}
	return 0, nil
}

// Retry retransmits p's request to every replica and re-arms its retry
// timer, the wait doubling with each retry up to 64 times RetryTimeout:
// backups forward the request to the primary and start suspecting it.
func (c *ClientCore[T, P]) Retry(ctx proc.Context, p P) {
	b := p.core()
	b.Retries++
	c.Count.Retries++
	proc.Broadcast(ctx, c.Replicas, b.Req)
	c.Arm(ctx, p, RetryTimer, c.Cfg.RetryTimeout<<uint(min(b.Retries, 6)))
}

// Finish completes p with result res: it drops the request's record, cancels
// its timers, counts it and reports the completion to the driver.
func (c *ClientCore[T, P]) Finish(ctx proc.Context, p P, res types.Result, fast bool) {
	b := p.core()
	ts := b.Cmd.Timestamp
	delete(c.Pending, ts)
	if c.slowPath {
		ctx.CancelTimer(timerID(ts, SlowTimer))
	}
	ctx.CancelTimer(timerID(ts, RetryTimer))
	c.Count.Completed++
	c.Cfg.Driver.Completed(ctx, c.self, workload.Completion{
		Cmd: b.Cmd, Result: res, Latency: ctx.Now() - b.Issued, At: ctx.Now(), FastPath: fast,
	})
}
