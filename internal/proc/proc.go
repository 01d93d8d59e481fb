// Package proc defines the process abstraction every protocol node
// (replica or client) in this repository implements. A Process is a
// single-threaded, event-driven state machine: the hosting runtime delivers
// messages and timer expirations one at a time, and the process reacts by
// sending messages and (re)arming timers through its Context.
//
// The same Process implementations run unmodified on two runtimes:
//
//   - the discrete-event simulator (internal/sim), where time is virtual,
//     message delays come from a WAN model, and processing costs are charged
//     to a per-node multi-core queueing model; and
//   - the real-time runtime (internal/transport), where Send goes over an
//     in-process or TCP transport and timers are wall-clock.
//
// Handlers must never block on external events, and any goroutines they
// start internally must be fully joined before the handler returns and must
// never touch the Context — from the runtime's point of view a handler is
// one atomic, single-threaded step; all cross-handler concurrency belongs
// to the runtime.
package proc

import (
	"math/rand"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// TimerID names a timer within one process. Setting a timer that is already
// armed re-arms it (the previous expiration is cancelled).
type TimerID uint64

// Context is the interface through which a process interacts with its
// runtime during a single handler invocation. Contexts are only valid for
// the duration of the handler call that received them.
type Context interface {
	// Now returns the current time: virtual in simulation, wall-clock
	// (monotonic, since runtime start) in live mode.
	Now() time.Duration

	// Send transmits a message to another node (or to self). Delivery is
	// asynchronous and may be delayed, reordered relative to other senders,
	// or — under fault injection — dropped.
	Send(to types.NodeID, msg codec.Message)

	// SetTimer arms (or re-arms) a one-shot timer that fires OnTimer(id)
	// after d.
	SetTimer(id TimerID, d time.Duration)

	// CancelTimer disarms a timer; cancelling an unarmed timer is a no-op.
	CancelTimer(id TimerID)

	// Charge accounts d of processing time (crypto, execution) to the
	// current handler invocation. In simulation this extends the node's
	// busy period and delays this handler's outgoing messages; in live mode
	// it is a no-op (real work takes real time).
	Charge(d time.Duration)

	// Rand returns the runtime's deterministic random source. Processes
	// must use it instead of global randomness so simulations replay.
	Rand() *rand.Rand
}

// Broadcaster is optionally implemented by runtime contexts whose
// transport can deliver one message to many destinations more cheaply than
// a loop of Sends — the live runtime's encode-once broadcast, which
// marshals a frame into one buffer and writes the same bytes to every TCP
// peer. The discrete-event simulator deliberately does not implement it:
// per-destination Send keeps the charged per-send costs (and so every
// simulated figure) identical to the paper's per-destination model.
type Broadcaster interface {
	// Broadcast sends msg to every destination in tos. Delivery semantics
	// match Send (asynchronous, reorderable, droppable), destination by
	// destination.
	Broadcast(tos []types.NodeID, msg codec.Message)
}

// Broadcast sends msg to every destination, through the context's
// encode-once fast path when the runtime provides one and a plain Send loop
// otherwise. Protocols use it for their all-replica (and all-client)
// fan-outs instead of hand-rolled loops.
func Broadcast(ctx Context, tos []types.NodeID, msg codec.Message) {
	if b, ok := ctx.(Broadcaster); ok {
		b.Broadcast(tos, msg)
		return
	}
	for _, to := range tos {
		ctx.Send(to, msg)
	}
}

// Backoff computes a capped-exponential retry delay with deterministic
// jitter: base doubled per retry (capped at 64x), then skewed by a
// uniform offset in [-base'/4, +base'/4) drawn from the context's
// deterministic RNG. The jitter desynchronizes processes whose timers a
// healed fault releases simultaneously — without it every waiter
// re-fires in the same instant and the retry storm repeats in lockstep
// each round. Shared by the client's request retry and the replicas'
// CATCHUP-REQ retry.
func Backoff(ctx Context, base time.Duration, retries int) time.Duration {
	shift := retries
	if shift > 6 {
		shift = 6
	}
	d := base << uint(shift)
	if half := int64(d) / 2; half > 0 {
		// Uniform in [-d/4, +d/4), from the deterministic RNG.
		d += time.Duration(ctx.Rand().Int63n(half)) - d/4
	}
	return d
}

// Process is a protocol node.
type Process interface {
	// ID returns the node's transport address.
	ID() types.NodeID
	// Init runs once before any delivery; processes send their first
	// messages and arm their first timers here.
	Init(ctx Context)
	// Receive handles one delivered message.
	Receive(ctx Context, from types.NodeID, msg codec.Message)
	// OnTimer handles one timer expiration.
	OnTimer(ctx Context, id TimerID)
}

// Costs holds the virtual processing-time constants a protocol node charges
// via Context.Charge at well-defined points: producing a signature/MAC,
// verifying one, and executing one command on the application. Live-mode
// nodes use the zero value (Charge is a no-op there anyway). The values
// model the paper's m4.2xlarge deployment; defaults are calibrated in
// internal/bench from Go crypto microbenchmarks.
type Costs struct {
	Sign   time.Duration // produce one replica signature / MAC
	Verify time.Duration // verify one replica signature / MAC
	// VerifyClient is the per-request cost of authenticating a client
	// request at the node that orders it (the asymmetric ECDSA
	// verification). It is charged once per arriving request regardless of
	// batching.
	VerifyClient time.Duration
	// AdmitInstance is the per-instance admission overhead at the ordering
	// node (session setup, serialization, and protocol-instance bookkeeping
	// — the non-crypto share of the paper implementation's per-request
	// cost). Unbatched protocols open one instance per request and charge
	// it per request; with owner-side batching it is charged once per
	// batch, which is what amortizes the ordering node's admission cost.
	// VerifyClient + AdmitInstance together reproduce the pre-batching
	// per-request admission cost.
	AdmitInstance time.Duration
	Execute       time.Duration // execute one command on the application
}

// ChargeSign charges one signing operation.
func (c Costs) ChargeSign(ctx Context) { ctx.Charge(c.Sign) }

// ChargeVerify charges n verification operations (certificates carry many
// signatures).
func (c Costs) ChargeVerify(ctx Context, n int) { ctx.Charge(time.Duration(n) * c.Verify) }

// ChargeVerifyClient charges one client-request authentication.
func (c Costs) ChargeVerifyClient(ctx Context) { ctx.Charge(c.VerifyClient) }

// ChargeAdmitInstance charges one protocol-instance admission (once per
// batch at a batching command-leader, once per request elsewhere).
func (c Costs) ChargeAdmitInstance(ctx Context) { ctx.Charge(c.AdmitInstance) }

// ChargeExecute charges one command execution.
func (c Costs) ChargeExecute(ctx Context) { ctx.Charge(c.Execute) }
