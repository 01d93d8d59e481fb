package shard

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

type nullCtx struct{}

func (nullCtx) Now() time.Duration                   { return 0 }
func (nullCtx) Send(types.NodeID, codec.Message)     {}
func (nullCtx) SetTimer(proc.TimerID, time.Duration) {}
func (nullCtx) CancelTimer(proc.TimerID)             {}
func (nullCtx) Charge(time.Duration)                 {}
func (nullCtx) Rand() *rand.Rand                     { return nil }

type countingSubmitter struct{ issued []types.Command }

func (s *countingSubmitter) ClientID() types.ClientID { return 1 }
func (s *countingSubmitter) InFlight() int            { return 0 }
func (s *countingSubmitter) Submit(_ proc.Context, cmd types.Command) uint64 {
	cmd.Timestamp = uint64(len(s.issued) + 1)
	s.issued = append(s.issued, cmd)
	return cmd.Timestamp
}

// TestFeederKeepsWithinPipelineWindow: however much is enqueued, a poll
// submits only what fits the clients' pipeline window; the rest stays
// queued, ahead of later arrivals, until completions make room.
func TestFeederKeepsWithinPipelineWindow(t *testing.T) {
	f, s := &Feeder{}, &countingSubmitter{}
	f.Start(nullCtx{}, s)
	const total = workload.PipelineWindow + 40
	completed := 0
	for i := 0; i < total; i++ {
		f.Enqueue(types.Command{Op: types.OpPut, Key: "k", Value: []byte{byte(i), byte(i >> 8)}}, func(workload.Completion) { completed++ })
	}
	f.OnTimer(nullCtx{}, s, workload.DriverTimerBase)
	if len(s.issued) != workload.PipelineWindow {
		t.Fatalf("first poll submitted %d of %d, want %d", len(s.issued), total, workload.PipelineWindow)
	}
	f.Enqueue(types.Command{Op: types.OpPut, Key: "late"}, nil)
	for ts := uint64(1); ts <= 40; ts++ {
		f.Completed(nullCtx{}, s, workload.Completion{Cmd: s.issued[ts-1]})
	}
	f.OnTimer(nullCtx{}, s, workload.DriverTimerBase)
	if len(s.issued) != total || completed != 40 {
		t.Fatalf("after 40 completions %d submitted and %d callbacks ran, want %d and 40", len(s.issued), completed, total)
	}
	for i, cmd := range s.issued {
		if cmd.Key != "k" || int(cmd.Value[0])|int(cmd.Value[1])<<8 != i {
			t.Fatalf("submission %d is %q %v: queue order lost", i, cmd.Key, cmd.Value)
		}
	}
}
