package engine_test

import (
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// inFlight returns the batch sizes of the ordering frames waiting in the
// pump (each broadcast once) and counts the client-bound messages.
func (c *pumped) inFlight() (frames []int, toClients int) {
	seen := make(map[codec.Message]bool)
	for _, e := range c.queue {
		if n, ok := c.p.frame(e.msg); ok && !seen[e.msg] {
			seen[e.msg] = true
			frames = append(frames, n)
		}
		if e.to.IsClient() {
			toClients++
		}
	}
	return frames, toClients
}

func (c *pumped) batcher(i int) engine.BatcherStats {
	return c.reps[i].(interface{ BatcherStats() engine.BatcherStats }).BatcherStats()
}

// TestAdmissionContract pins what every sequenced protocol's admission
// (engine.Sequencer.Admit) does with a REQUEST, replica 0 being the
// primary: a duplicate is ordered once whether it arrives while its batch
// fills or after the batch went out, a request below its client's window
// is dropped at the primary and at a backup, a backup whose forwarded
// request the primary orders raises no suspicion when its timer expires,
// and an answered request gets its reply again without a new ordering.
func TestAdmissionContract(t *testing.T) {
	client := types.ClientNode(1)
	cases := []struct {
		name string
		opts engine.ReplicaOptions
		run  func(t *testing.T, c *pumped)
	}{
		{"duplicate-while-queued", engine.ReplicaOptions{BatchSize: 4, BatchDelay: time.Second}, func(t *testing.T, c *pumped) {
			c.deliver(0, client, c.request(1, 1))
			c.deliver(0, client, c.request(1, 1))
			c.fire(0) // the batch delay
			if frames, _ := c.inFlight(); len(frames) != 1 || frames[0] != 1 {
				t.Fatalf("ordering frames (batch sizes) %v, want one of 1", frames)
			}
			if s := c.batcher(0); s.Flushes != 1 || s.Items != 1 {
				t.Fatalf("batcher %+v, want one flush of one request", s)
			}
		}},
		{"duplicate-after-ordering", engine.ReplicaOptions{}, func(t *testing.T, c *pumped) {
			c.deliver(0, client, c.request(1, 1))
			c.deliver(0, client, c.request(1, 1)) // ordered, not yet final
			if frames, _ := c.inFlight(); len(frames) != 1 {
				t.Fatalf("ordering frames %v, want one", frames)
			}
		}},
		{"below-window", engine.ReplicaOptions{}, func(t *testing.T, c *pumped) {
			c.deliver(0, client, c.request(1, 1))
			c.deliver(0, client, c.request(1, 2+engine.ReplyRetention))
			c.pump()
			for _, i := range []int{0, 1} {
				before := c.stat(i, "DroppedInvalid")
				c.deliver(i, client, c.request(1, 2))
				if len(c.queue) != 0 {
					t.Fatalf("replica %d sent %d messages for a request below the window", i, len(c.queue))
				}
				if c.stat(i, "DroppedInvalid") != before+1 {
					t.Fatalf("replica %d did not count the dropped request", i)
				}
			}
		}},
		{"forwarded-then-ordered", engine.ReplicaOptions{}, func(t *testing.T, c *pumped) {
			c.deliver(1, client, c.request(1, 1))
			if len(c.queue) != 1 || c.queue[0].to != types.ReplicaNode(0) {
				t.Fatalf("backup sent %d messages, want the request forwarded to the primary", len(c.queue))
			}
			c.pump()
			c.fire(1) // ForwardTimeout
			c.pump()
			for i := range c.reps {
				if got := c.stat(i, c.p.changes); got != 0 || c.view(i) != 0 {
					t.Fatalf("replica %d: %d view changes, view %d after an ordered forward", i, got, c.view(i))
				}
			}
			if n := len(c.client); n != 4 {
				t.Fatalf("client got %d replies, want one per replica", n)
			}
		}},
		{"reply-cache-resend", engine.ReplicaOptions{}, func(t *testing.T, c *pumped) {
			c.deliver(0, client, c.request(1, 1))
			c.pump()
			c.deliver(2, client, c.request(1, 1))
			frames, toClients := c.inFlight()
			if len(frames) != 0 || toClients != 1 || len(c.queue) != 1 {
				t.Fatalf("resend: %v frames, %d client messages of %d, want exactly the cached reply", frames, toClients, len(c.queue))
			}
			var reply codec.Message = c.queue[0].msg
			for _, e := range c.client {
				if e.from == types.ReplicaNode(2) && e.msg == reply {
					return
				}
			}
			t.Fatalf("replica 2 resent %T, not the reply it sent before", reply)
		}},
	}
	for _, p := range sequencedProtocols {
		for _, tc := range cases {
			t.Run(string(p.name)+"/"+tc.name, func(t *testing.T) {
				tc.run(t, newPumped(t, p, tc.opts))
			})
		}
	}
}
