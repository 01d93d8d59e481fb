package engine

import (
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/proc"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// timerDriver records the timers a client hands its driver.
type timerDriver struct{ fired []proc.TimerID }

func (d *timerDriver) Start(proc.Context, workload.Submitter)                          {}
func (d *timerDriver) Completed(proc.Context, workload.Submitter, workload.Completion) {}
func (d *timerDriver) OnTimer(_ proc.Context, _ workload.Submitter, id proc.TimerID) {
	d.fired = append(d.fired, id)
}

// TestTimerLayoutStaysBelowDriverTimers: a request's timers come back to the
// protocol with their request and kind, never to the driver, at timestamps
// from 2^30 on (where ts*4 reached the old driver base, 2^32) and far
// beyond; a driver timer still goes to the driver.
func TestTimerLayoutStaysBelowDriverTimers(t *testing.T) {
	drv := &timerDriver{}
	var c ClientCore[Pending, *Pending]
	cfg := ClientConfig{N: 4, Auth: auth.NewHMACKeyring([]byte("layout")).ForNode(types.ClientNode(0)), Driver: drv}
	if err := c.Setup("layout", cfg, nil, true); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []uint64{1, 1<<30 - 1, 1 << 30, 1<<30 + 1, 1 << 40, 1<<40 + 3} {
		p := &Pending{Cmd: types.Command{Timestamp: ts}}
		c.Pending[ts] = p
		for _, k := range []TimerKind{SlowTimer, RetryTimer} {
			id := timerID(ts, k)
			if kind, got := c.Expired(nopCtx{}, id); kind != k || got != p {
				t.Fatalf("timestamp %d kind %d: id %#x came back as kind %d, entry %v", ts, k, id, kind, got)
			}
		}
		delete(c.Pending, ts)
	}
	if kind, _ := c.Expired(nopCtx{}, workload.DriverTimerBase+1); kind != 0 || len(drv.fired) != 1 {
		t.Fatalf("a driver timer came back as kind %d, the driver got %v", kind, drv.fired)
	}
}
