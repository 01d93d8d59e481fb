package ezbft

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// scriptedSubmitter is a protocol client that stamps consecutive timestamps
// and completes nothing by itself.
type scriptedSubmitter struct{ issued []types.Command }

func (s *scriptedSubmitter) ClientID() types.ClientID { return 1 }
func (s *scriptedSubmitter) InFlight() int            { return 0 }
func (s *scriptedSubmitter) Submit(_ proc.Context, cmd types.Command) uint64 {
	cmd.Timestamp = uint64(len(s.issued) + 1)
	s.issued = append(s.issued, cmd)
	return cmd.Timestamp
}

// TestBridgeHoldsSubmissionsPastTheWindow: the future bridge hands the
// protocol client a command only while its timestamp stays within
// PipelineWindow of the oldest unresolved one. With the first command stuck
// (lost, say) and every other completing at once, the bridge stops at
// timestamp PipelineWindow; the rest wait in submission order and go out the
// moment the first resolves — so a retransmission of the stuck command is
// never older than what replicas still admit.
func TestBridgeHoldsSubmissionsPastTheWindow(t *testing.T) {
	b := newFutureBridge()
	s := &scriptedSubmitter{}
	const total = 2*PipelineWindow + 10
	futures := make([]*Future, total)
	complete := func(ts uint64) {
		b.Completed(nil, s, workload.Completion{Cmd: s.issued[ts-1]})
	}
	for i := range futures {
		futures[i] = &Future{done: make(chan struct{})}
		b.submit(nil, s, Put(fmt.Sprintf("k%d", i), nil), futures[i])
		if n := uint64(len(s.issued)); n == uint64(i+1) && n > 1 {
			complete(n) // issued at once: completes at once, unless it is the first
		}
	}
	if len(s.issued) != PipelineWindow || len(b.held) != total-PipelineWindow {
		t.Fatalf("with command 1 unresolved the bridge issued %d and holds %d, want %d and %d",
			len(s.issued), len(b.held), PipelineWindow, total-PipelineWindow)
	}
	complete(1)
	// Room for a window past the new oldest unresolved command (the first one
	// issued just now), and no further.
	if want := 2 * PipelineWindow; len(s.issued) != want {
		t.Fatalf("after command 1 resolved %d commands are issued, want %d", len(s.issued), want)
	}
	for ts := uint64(PipelineWindow + 1); len(b.held) > 0 || int(ts) <= len(s.issued); ts++ {
		complete(ts)
	}
	for i, cmd := range s.issued {
		if want := fmt.Sprintf("k%d", i); cmd.Key != want {
			t.Fatalf("command %d issued as %q: held commands left out of submission order", i, cmd.Key)
		}
	}
	for i, f := range futures {
		select {
		case <-f.done:
		default:
			t.Fatalf("future %d never resolved", i)
		}
	}
}

// TestSubmitBurstPastTheWindow: a burst of more commands than the window
// holds, submitted before the first can commit, completes under every
// protocol, with never more than PipelineWindow of them in the protocol.
func TestSubmitBurstPastTheWindow(t *testing.T) {
	const total = PipelineWindow + 100
	for _, proto := range allProtocols {
		t.Run(string(proto), func(t *testing.T) {
			cluster, err := NewLiveCluster(LiveConfig{Protocol: proto, Delay: 20 * time.Millisecond, BatchSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			client, err := cluster.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}
			futures := make([]*Future, total)
			for i := range futures {
				if futures[i], err = client.Submit(t.Context(), Put(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
					t.Fatal(err)
				}
			}
			probe := make(chan [2]int, 1)
			if err := client.node.Inject(func(proc.Context) {
				probe <- [2]int{client.inner.InFlight(), len(client.bridge.held)}
			}); err != nil {
				t.Fatal(err)
			}
			if p := <-probe; p[0] > PipelineWindow || (p[0] < PipelineWindow && p[1] > 0) {
				t.Fatalf("%d commands in the protocol with %d held, want at most %d and none held below that", p[0], p[1], PipelineWindow)
			}
			for i, f := range futures {
				if res, err := f.Wait(t.Context()); err != nil || !res.OK {
					t.Fatalf("command %d: %v %+v", i, err, res)
				}
			}
		})
	}
}
