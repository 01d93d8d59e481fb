package transport

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/race"
	"ezbft/internal/types"
)

// firing is one OnTimer call as a timerProc saw it.
type firing struct {
	id proc.TimerID
	at time.Time
}

// timerProc records every OnTimer and runs an optional hook inside it.
type timerProc struct {
	mu     sync.Mutex
	fired  []firing
	onFire func(ctx proc.Context, id proc.TimerID)
}

func (p *timerProc) ID() types.NodeID                                  { return types.ReplicaNode(0) }
func (p *timerProc) Init(proc.Context)                                 {}
func (p *timerProc) Receive(proc.Context, types.NodeID, codec.Message) {}
func (p *timerProc) OnTimer(ctx proc.Context, id proc.TimerID) {
	p.mu.Lock()
	p.fired = append(p.fired, firing{id: id, at: time.Now()})
	p.mu.Unlock()
	if p.onFire != nil {
		p.onFire(ctx, id)
	}
}

func (p *timerProc) firings() []firing {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]firing(nil), p.fired...)
}

// ids lists which timers fired, in firing order.
func (p *timerProc) ids() []proc.TimerID {
	var out []proc.TimerID
	for _, f := range p.firings() {
		out = append(out, f.id)
	}
	return out
}

// startTimerNode runs p on a started live node that the test stops.
func startTimerNode(t *testing.T, p *timerProc) *LiveNode {
	t.Helper()
	n := NewLiveNode(p, NewMesh(0), 1)
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// on runs fn on the node's loop and waits for it to return.
func on(t *testing.T, n *LiveNode, fn func(ctx proc.Context)) {
	t.Helper()
	ran := make(chan struct{})
	if err := n.Inject(func(ctx proc.Context) { fn(ctx); close(ran) }); err != nil {
		t.Fatal(err)
	}
	<-ran
}

// TestLiveTimerRearmFiresOnceAtNewDeadline: a re-arm replaces the earlier
// deadline, whether it moves it earlier or later, and the timer fires once.
func TestLiveTimerRearmFiresOnceAtNewDeadline(t *testing.T) {
	p := &timerProc{}
	n := startTimerNode(t, p)
	var armed time.Time
	on(t, n, func(ctx proc.Context) {
		armed = time.Now()
		ctx.SetTimer(1, time.Hour)
		ctx.SetTimer(1, 20*time.Millisecond) // earlier
		ctx.SetTimer(2, 10*time.Millisecond)
		ctx.SetTimer(2, 80*time.Millisecond) // later
	})
	waitFor(t, func() bool { return len(p.firings()) >= 2 })
	fs := p.firings()
	if got := p.ids(); !slices.Equal(got, []proc.TimerID{1, 2}) {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if d := fs[0].at.Sub(armed); d < 20*time.Millisecond || d > time.Second {
		t.Errorf("timer 1 fired after %v, want its re-armed 20ms", d)
	}
	if d := fs[1].at.Sub(armed); d < 80*time.Millisecond {
		t.Errorf("timer 2 fired after %v, before its re-armed 80ms", d)
	}
}

// TestLiveTimerCancelledNeverFires: a cancelled timer does not fire, and a
// wake set for its deadline passes without effect on the others.
func TestLiveTimerCancelledNeverFires(t *testing.T) {
	p := &timerProc{}
	n := startTimerNode(t, p)
	on(t, n, func(ctx proc.Context) {
		ctx.SetTimer(1, 10*time.Millisecond)
		ctx.SetTimer(2, 40*time.Millisecond)
		ctx.CancelTimer(1)
		ctx.CancelTimer(7) // never armed: a no-op
	})
	// Timer 1, had it fired, would have done so before timer 2.
	waitFor(t, func() bool { return len(p.firings()) >= 1 })
	if got := p.ids(); !slices.Equal(got, []proc.TimerID{2}) {
		t.Fatalf("fired %v, want [2]", got)
	}
}

// TestLiveTimerEarlierArmedLaterFiresFirst: deadlines, not arming order,
// decide the firing order.
func TestLiveTimerEarlierArmedLaterFiresFirst(t *testing.T) {
	p := &timerProc{}
	n := startTimerNode(t, p)
	on(t, n, func(ctx proc.Context) {
		ctx.SetTimer(1, 60*time.Millisecond)
		ctx.SetTimer(2, 30*time.Millisecond)
		ctx.SetTimer(3, 10*time.Millisecond)
	})
	waitFor(t, func() bool { return len(p.firings()) >= 3 })
	if got := p.ids(); !slices.Equal(got, []proc.TimerID{3, 2, 1}) {
		t.Fatalf("fired %v, want [3 2 1]", got)
	}
}

// TestLiveTimerDueTogetherHandlerDisarmsTheNext: timers 1 and 2 come due
// while the loop is busy, so one wake finds both due. Timer 1's OnTimer
// cancels or re-arms timer 2, which must then not fire at its old deadline:
// a loop that took every due timer off the heap before running any would
// still fire it.
func TestLiveTimerDueTogetherHandlerDisarmsTheNext(t *testing.T) {
	for _, tc := range []struct {
		name  string
		act   func(ctx proc.Context)
		want  []proc.TimerID
		rearm bool
	}{
		{name: "cancel", act: func(ctx proc.Context) { ctx.CancelTimer(2) }, want: []proc.TimerID{1}},
		{name: "rearm", act: func(ctx proc.Context) { ctx.SetTimer(2, 60*time.Millisecond) }, want: []proc.TimerID{1, 2}, rearm: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &timerProc{}
			p.onFire = func(ctx proc.Context, id proc.TimerID) {
				if id == 1 {
					tc.act(ctx)
				}
			}
			n := startTimerNode(t, p)
			on(t, n, func(ctx proc.Context) {
				ctx.SetTimer(1, time.Millisecond)
				ctx.SetTimer(2, time.Millisecond)
				time.Sleep(20 * time.Millisecond) // both come due meanwhile
			})
			waitFor(t, func() bool { return len(p.firings()) >= len(tc.want) })
			time.Sleep(20 * time.Millisecond) // room for a firing too many
			if got := p.ids(); !slices.Equal(got, tc.want) {
				t.Fatalf("fired %v, want %v", got, tc.want)
			}
			if tc.rearm {
				if fs := p.firings(); fs[1].at.Sub(fs[0].at) < 60*time.Millisecond {
					t.Fatalf("re-armed timer fired %v after the re-arm, before its new 60ms", fs[1].at.Sub(fs[0].at))
				}
			}
		})
	}
}

// TestLiveTimerNothingAfterStop: once Stop returns no OnTimer runs, and
// the node leaves no goroutine behind for the timers it had armed.
func TestLiveTimerNothingAfterStop(t *testing.T) {
	before := runtime.NumGoroutine()
	p := &timerProc{}
	n := NewLiveNode(p, NewMesh(0), 1)
	n.Start()
	on(t, n, func(ctx proc.Context) {
		for i := range 64 {
			ctx.SetTimer(proc.TimerID(i), time.Duration(i%8)*time.Millisecond)
		}
	})
	time.Sleep(3 * time.Millisecond) // some have fired, most are still armed
	n.Stop()
	stopped := len(p.firings())
	time.Sleep(30 * time.Millisecond)
	if got := len(p.firings()); got != stopped {
		t.Fatalf("%d OnTimer calls after Stop returned", got-stopped)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Stop, %d before the node started", got, before)
	}
}

// TestLiveTimerAllocations: arming and cancelling timers of fresh ids,
// beside timers that stay armed, allocates nothing once the node is warm.
func TestLiveTimerAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	p := &timerProc{}
	n := startTimerNode(t, p)
	var allocs float64
	on(t, n, func(ctx proc.Context) {
		for i := range 4 {
			ctx.SetTimer(proc.TimerID(1000+i), time.Hour)
		}
		id := proc.TimerID(0)
		allocs = testing.AllocsPerRun(1000, func() {
			id++
			ctx.SetTimer(id, time.Hour)
			ctx.SetTimer(id, time.Minute)
			ctx.CancelTimer(id)
		})
	})
	if allocs != 0 {
		t.Fatalf("SetTimer/CancelTimer allocate %.2f times per fresh id", allocs)
	}
}
