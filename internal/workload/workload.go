// Package workload provides the client-side request drivers used by every
// protocol's evaluation: closed-loop clients (wait for the previous reply
// before issuing the next request — paper Experiments 1, 2 and the client
// scalability study) and open-loop clients (issue continuously at a target
// rate without waiting — the paper's throughput experiment). It also
// implements the paper's contention model: θ% of requests target one shared
// hot key, the rest target the client's own non-overlapping keys.
package workload

import (
	"fmt"
	"time"

	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// DriverTimerBase is the first timer ID reserved for drivers; protocol
// clients forward expirations of ids >= DriverTimerBase to their driver. It
// lies above every ID the client core gives a request's timers (timestamp
// times four plus the kind) before timestamp 2^60.
const DriverTimerBase proc.TimerID = 1 << 62

// Submitter is the face a protocol client shows its driver: drivers hand it
// command templates, the client stamps identity and timestamp and runs the
// protocol.
type Submitter interface {
	// ClientID identifies the client.
	ClientID() types.ClientID
	// Submit issues one command (the client fills in Client and Timestamp)
	// and returns the per-client timestamp assigned to it. Timestamps are
	// unique per client and appear unchanged in the Completion's Cmd, so
	// callers with many in-flight commands correlate each completion to its
	// submission (the pipelined client bridges are built on this). A driver
	// that keeps several requests outstanding must keep them within
	// PipelineWindow timestamps of each other: see Outstanding.
	Submit(ctx proc.Context, cmd types.Command) uint64
	// InFlight returns the number of outstanding requests.
	InFlight() int
}

// Completion describes one finished request.
type Completion struct {
	Cmd      types.Command
	Result   types.Result
	Latency  time.Duration
	At       time.Duration // completion time on the runtime clock
	FastPath bool          // took the protocol's fast path (where applicable)
}

// Driver decides what a client submits and when.
type Driver interface {
	// Start is called once from the client's Init.
	Start(ctx proc.Context, s Submitter)
	// Completed is called when a request finishes.
	Completed(ctx proc.Context, s Submitter, c Completion)
	// OnTimer is called for timer ids >= DriverTimerBase.
	OnTimer(ctx proc.Context, s Submitter, id proc.TimerID)
}

// Recorder receives completions; implementations live in internal/metrics.
type Recorder interface {
	Record(client types.ClientID, c Completion)
}

// Generator produces command templates. Implementations must be
// deterministic given the context's RNG.
type Generator interface {
	Next(ctx proc.Context, client types.ClientID, seq uint64) types.Command
}

// KVGenerator implements the paper's key-value workload: with probability
// Contention the request targets the shared hot key; otherwise it targets
// one of the client's own keys. Requests are 8-byte keys and 16-byte values
// (paper §V-C); mix of puts and gets per WriteRatio.
type KVGenerator struct {
	// Contention is the fraction of requests hitting the shared key
	// (the paper evaluates 0, 0.02, 0.5, 1.0).
	Contention float64
	// WriteRatio is the fraction of PUTs (remainder are GETs). The paper's
	// latency experiments use update-heavy workloads; default 1.0.
	WriteRatio float64
	// Keyspace is the number of private keys per client (default 1024).
	Keyspace int
}

var _ Generator = (*KVGenerator)(nil)

// Next implements Generator.
func (g *KVGenerator) Next(ctx proc.Context, client types.ClientID, seq uint64) types.Command {
	rng := ctx.Rand()
	keyspace := g.Keyspace
	if keyspace <= 0 {
		keyspace = 1024
	}
	writeRatio := g.WriteRatio
	if writeRatio == 0 {
		writeRatio = 1.0
	}
	var key string
	if g.Contention > 0 && rng.Float64() < g.Contention {
		key = "hot:0000" // the shared contended key
	} else {
		key = fmt.Sprintf("c%03d:%03d", uint32(client)%1000, rng.Intn(keyspace)%1000)
	}
	op := types.OpPut
	if rng.Float64() >= writeRatio {
		op = types.OpGet
	}
	cmd := types.Command{Op: op, Key: key}
	if op == types.OpPut {
		val := make([]byte, 16)
		rng.Read(val)
		cmd.Value = val
	}
	return cmd
}

// ClosedLoop issues one request at a time: the next request goes out when
// the previous completes ("a client will wait for a reply to its previous
// request before sending another one").
type ClosedLoop struct {
	// Gen produces command templates.
	Gen Generator
	// Recorder receives completions (may be nil).
	Recorder Recorder
	// MaxRequests stops the client after this many completions (0 = no
	// limit).
	MaxRequests uint64
	// ThinkTime pauses between completion and next issue (0 = immediate).
	ThinkTime time.Duration

	seq  uint64
	done uint64
}

var _ Driver = (*ClosedLoop)(nil)

// Done returns the number of completed requests.
func (d *ClosedLoop) Done() uint64 { return d.done }

// Start implements Driver.
func (d *ClosedLoop) Start(ctx proc.Context, s Submitter) {
	d.issue(ctx, s)
}

func (d *ClosedLoop) issue(ctx proc.Context, s Submitter) {
	if d.MaxRequests > 0 && d.seq >= d.MaxRequests {
		return
	}
	d.seq++
	s.Submit(ctx, d.Gen.Next(ctx, s.ClientID(), d.seq))
}

// Completed implements Driver.
func (d *ClosedLoop) Completed(ctx proc.Context, s Submitter, c Completion) {
	d.done++
	if d.Recorder != nil {
		d.Recorder.Record(s.ClientID(), c)
	}
	if d.MaxRequests > 0 && d.done >= d.MaxRequests {
		return
	}
	if d.ThinkTime > 0 {
		ctx.SetTimer(DriverTimerBase, d.ThinkTime)
		return
	}
	d.issue(ctx, s)
}

// OnTimer implements Driver.
func (d *ClosedLoop) OnTimer(ctx proc.Context, s Submitter, id proc.TimerID) {
	if id == DriverTimerBase {
		d.issue(ctx, s)
	}
}

// OpenLoop issues requests at a fixed rate regardless of completions
// ("clients continuously and asynchronously send requests before receiving
// replies" — the paper's throughput experiment).
type OpenLoop struct {
	// Gen produces command templates.
	Gen Generator
	// Recorder receives completions (may be nil).
	Recorder Recorder
	// Interval is the time between consecutive submissions.
	Interval time.Duration
	// Rate is the target submissions per second, an alternative to
	// Interval (used when Interval is zero; 1000 req/s ≡ Interval 1ms).
	Rate float64
	// MaxInFlight caps outstanding requests (0 = no cap of the driver's
	// own); when at the cap a tick is skipped, modelling client-side
	// backpressure. Whatever the cap, a tick is also skipped while the
	// oldest outstanding request is PipelineWindow timestamps behind the
	// next one (see Outstanding).
	MaxInFlight int
	// MaxRequests stops the client after this many submissions (0 = no
	// limit).
	MaxRequests uint64

	seq  uint64
	done uint64
	out  Outstanding
}

var _ Driver = (*OpenLoop)(nil)

// Done returns the number of completed requests.
func (d *OpenLoop) Done() uint64 { return d.done }

// interval returns the submission period: Interval when set, else derived
// from Rate, else one millisecond.
func (d *OpenLoop) interval() time.Duration {
	if d.Interval > 0 {
		return d.Interval
	}
	if d.Rate > 0 {
		if iv := time.Duration(float64(time.Second) / d.Rate); iv > 0 {
			return iv
		}
		return time.Nanosecond
	}
	return time.Millisecond
}

// Start implements Driver.
func (d *OpenLoop) Start(ctx proc.Context, s Submitter) {
	ctx.SetTimer(DriverTimerBase, d.interval())
}

// Completed implements Driver.
func (d *OpenLoop) Completed(ctx proc.Context, s Submitter, c Completion) {
	d.done++
	d.out.Remove(c.Cmd.Timestamp)
	if d.Recorder != nil {
		d.Recorder.Record(s.ClientID(), c)
	}
}

// OnTimer implements Driver.
func (d *OpenLoop) OnTimer(ctx proc.Context, s Submitter, id proc.TimerID) {
	if id != DriverTimerBase {
		return
	}
	if d.MaxRequests > 0 && d.seq >= d.MaxRequests {
		return
	}
	if (d.MaxInFlight <= 0 || s.InFlight() < d.MaxInFlight) && d.out.Room() {
		d.seq++
		d.out.Add(s.Submit(ctx, d.Gen.Next(ctx, s.ClientID(), d.seq)))
	}
	ctx.SetTimer(DriverTimerBase, d.interval())
}

// FixedScript submits a fixed command sequence, one at a time; tests use it
// to reproduce the paper's example traces exactly.
type FixedScript struct {
	// Commands to issue in order.
	Commands []types.Command
	// Recorder receives completions (may be nil).
	Recorder Recorder
	// Results accumulates completions in order.
	Results []Completion

	next int
}

var _ Driver = (*FixedScript)(nil)

// Start implements Driver.
func (d *FixedScript) Start(ctx proc.Context, s Submitter) {
	d.issue(ctx, s)
}

func (d *FixedScript) issue(ctx proc.Context, s Submitter) {
	if d.next >= len(d.Commands) {
		return
	}
	cmd := d.Commands[d.next]
	d.next++
	s.Submit(ctx, cmd)
}

// Completed implements Driver.
func (d *FixedScript) Completed(ctx proc.Context, s Submitter, c Completion) {
	d.Results = append(d.Results, c)
	if d.Recorder != nil {
		d.Recorder.Record(s.ClientID(), c)
	}
	d.issue(ctx, s)
}

// OnTimer implements Driver.
func (d *FixedScript) OnTimer(proc.Context, Submitter, proc.TimerID) {}
