package shard

import (
	"sync"
	"time"

	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// DefaultFeederPoll is the virtual-time polling interval of a Feeder.
const DefaultFeederPoll = time.Millisecond

// Feeder is a workload.Driver fed from outside the event loop: the sharded
// simulator pump enqueues transaction phase commands between lockstep
// quanta, the feeder submits them at its next poll tick inside the shard's
// simulation, and each completion runs the caller's callback. Because
// enqueues happen only at quantum boundaries and polls fire at deterministic
// virtual times, the induced message schedule — and therefore the whole
// sharded run — stays deterministic.
type Feeder struct {
	// Poll is the polling interval (default DefaultFeederPoll).
	Poll time.Duration

	mu       sync.Mutex
	queue    []feedItem
	inflight map[uint64]func(workload.Completion)

	// out keeps submissions within the clients' pipeline window; touched
	// only from the event loop.
	out workload.Outstanding
}

type feedItem struct {
	cmd  types.Command
	done func(workload.Completion)
}

var _ workload.Driver = (*Feeder)(nil)

// Enqueue hands the feeder one command to submit at its next poll; done (may
// be nil) runs when the command completes.
func (f *Feeder) Enqueue(cmd types.Command, done func(workload.Completion)) {
	f.mu.Lock()
	f.queue = append(f.queue, feedItem{cmd: cmd, done: done})
	f.mu.Unlock()
}

func (f *Feeder) poll() time.Duration {
	if f.Poll > 0 {
		return f.Poll
	}
	return DefaultFeederPoll
}

// Start implements workload.Driver.
func (f *Feeder) Start(ctx proc.Context, _ workload.Submitter) {
	f.mu.Lock()
	if f.inflight == nil {
		f.inflight = make(map[uint64]func(workload.Completion))
	}
	f.mu.Unlock()
	ctx.SetTimer(workload.DriverTimerBase, f.poll())
}

// OnTimer implements workload.Driver: drain the queue into the protocol
// client, as far as the pipeline window has room (the rest stays queued, in
// order, for a later poll), and re-arm the poll.
func (f *Feeder) OnTimer(ctx proc.Context, s workload.Submitter, id proc.TimerID) {
	if id != workload.DriverTimerBase {
		return
	}
	f.mu.Lock()
	items := f.queue
	f.queue = nil
	f.mu.Unlock()
	for i, item := range items {
		if !f.out.Room() {
			f.mu.Lock()
			f.queue = append(items[i:len(items):len(items)], f.queue...)
			f.mu.Unlock()
			break
		}
		ts := s.Submit(ctx, item.cmd)
		f.out.Add(ts)
		if item.done != nil {
			f.mu.Lock()
			f.inflight[ts] = item.done
			f.mu.Unlock()
		}
	}
	ctx.SetTimer(workload.DriverTimerBase, f.poll())
}

// Completed implements workload.Driver.
func (f *Feeder) Completed(_ proc.Context, _ workload.Submitter, c workload.Completion) {
	f.out.Remove(c.Cmd.Timestamp)
	f.mu.Lock()
	done := f.inflight[c.Cmd.Timestamp]
	delete(f.inflight, c.Cmd.Timestamp)
	f.mu.Unlock()
	if done != nil {
		done(c)
	}
}
