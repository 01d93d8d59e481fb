package workload

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// fakeCtx is a minimal proc.Context for driving workloads directly.
type fakeCtx struct {
	now    time.Duration
	rng    *rand.Rand
	timers map[proc.TimerID]time.Duration
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{rng: rand.New(rand.NewSource(1)), timers: make(map[proc.TimerID]time.Duration)}
}

func (c *fakeCtx) Now() time.Duration                        { return c.now }
func (c *fakeCtx) Send(types.NodeID, codec.Message)          {}
func (c *fakeCtx) SetTimer(id proc.TimerID, d time.Duration) { c.timers[id] = d }
func (c *fakeCtx) CancelTimer(id proc.TimerID)               { delete(c.timers, id) }
func (c *fakeCtx) Charge(time.Duration)                      {}
func (c *fakeCtx) Rand() *rand.Rand                          { return c.rng }

// fakeSubmitter records submissions.
type fakeSubmitter struct {
	id       types.ClientID
	cmds     []types.Command
	inFlight int
}

func (s *fakeSubmitter) ClientID() types.ClientID { return s.id }
func (s *fakeSubmitter) InFlight() int            { return s.inFlight }
func (s *fakeSubmitter) Submit(_ proc.Context, cmd types.Command) uint64 {
	s.cmds = append(s.cmds, cmd)
	s.inFlight++
	return uint64(len(s.cmds))
}

func TestKVGeneratorContentionFractions(t *testing.T) {
	for _, contention := range []float64{0, 0.02, 0.5, 1.0} {
		gen := &KVGenerator{Contention: contention}
		ctx := newFakeCtx()
		const n = 5000
		hot := 0
		for i := 0; i < n; i++ {
			cmd := gen.Next(ctx, 7, uint64(i))
			if cmd.Key == "hot:0000" {
				hot++
			}
			if cmd.Op != types.OpPut {
				t.Fatalf("default write ratio should yield PUTs, got %v", cmd.Op)
			}
			if cmd.Op == types.OpPut && len(cmd.Value) != 16 {
				t.Fatalf("value size %d, want 16 (paper §V-C)", len(cmd.Value))
			}
		}
		got := float64(hot) / n
		if diff := got - contention; diff > 0.03 || diff < -0.03 {
			t.Errorf("contention %.2f: hot fraction %.3f", contention, got)
		}
	}
}

func TestKVGeneratorPrivateKeysDisjoint(t *testing.T) {
	gen := &KVGenerator{Contention: 0}
	ctx := newFakeCtx()
	a := gen.Next(ctx, 1, 1)
	b := gen.Next(ctx, 2, 1)
	if a.Key[:4] == b.Key[:4] {
		t.Fatalf("clients share key prefixes: %q vs %q", a.Key, b.Key)
	}
}

func TestKVGeneratorWriteRatio(t *testing.T) {
	gen := &KVGenerator{WriteRatio: 0.5}
	ctx := newFakeCtx()
	writes := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if gen.Next(ctx, 1, uint64(i)).Op == types.OpPut {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("write fraction %.3f, want ≈0.5", frac)
	}
}

func TestClosedLoopOneAtATime(t *testing.T) {
	d := &ClosedLoop{Gen: &KVGenerator{}, MaxRequests: 3}
	s := &fakeSubmitter{id: 1}
	ctx := newFakeCtx()
	d.Start(ctx, s)
	if len(s.cmds) != 1 {
		t.Fatalf("start issued %d commands, want 1", len(s.cmds))
	}
	// Completion triggers the next issue, up to the cap.
	for i := 0; i < 5; i++ {
		s.inFlight--
		d.Completed(ctx, s, Completion{})
	}
	if len(s.cmds) != 3 {
		t.Fatalf("issued %d total, want MaxRequests=3", len(s.cmds))
	}
	if d.Done() != 5 {
		t.Fatalf("done = %d", d.Done())
	}
}

func TestClosedLoopThinkTime(t *testing.T) {
	d := &ClosedLoop{Gen: &KVGenerator{}, ThinkTime: 50 * time.Millisecond}
	s := &fakeSubmitter{id: 1}
	ctx := newFakeCtx()
	d.Start(ctx, s)
	s.inFlight--
	d.Completed(ctx, s, Completion{})
	if len(s.cmds) != 1 {
		t.Fatalf("issued %d, want 1 (thinking)", len(s.cmds))
	}
	if _, armed := ctx.timers[DriverTimerBase]; !armed {
		t.Fatal("think timer not armed")
	}
	d.OnTimer(ctx, s, DriverTimerBase)
	if len(s.cmds) != 2 {
		t.Fatalf("issued %d after think timer, want 2", len(s.cmds))
	}
}

func TestOpenLoopRateAndCap(t *testing.T) {
	d := &OpenLoop{Gen: &KVGenerator{}, Interval: time.Millisecond, MaxInFlight: 2}
	s := &fakeSubmitter{id: 1}
	ctx := newFakeCtx()
	d.Start(ctx, s)
	if len(s.cmds) != 0 {
		t.Fatal("open loop should not submit at start")
	}
	// Each tick submits while below the cap, and always re-arms.
	for i := 0; i < 5; i++ {
		d.OnTimer(ctx, s, DriverTimerBase)
	}
	if len(s.cmds) != 2 {
		t.Fatalf("submitted %d, want MaxInFlight=2", len(s.cmds))
	}
	if _, armed := ctx.timers[DriverTimerBase]; !armed {
		t.Fatal("tick timer not re-armed")
	}
	// Completion frees a slot.
	s.inFlight--
	d.Completed(ctx, s, Completion{})
	d.OnTimer(ctx, s, DriverTimerBase)
	if len(s.cmds) != 3 {
		t.Fatalf("submitted %d after slot freed, want 3", len(s.cmds))
	}
}

func TestOpenLoopMaxRequests(t *testing.T) {
	d := &OpenLoop{Gen: &KVGenerator{}, Interval: time.Millisecond, MaxRequests: 2}
	s := &fakeSubmitter{id: 1}
	ctx := newFakeCtx()
	d.Start(ctx, s)
	for i := 0; i < 10; i++ {
		d.OnTimer(ctx, s, DriverTimerBase)
	}
	if len(s.cmds) != 2 {
		t.Fatalf("submitted %d, want 2", len(s.cmds))
	}
}

func TestFixedScriptSequencing(t *testing.T) {
	script := []types.Command{
		{Op: types.OpPut, Key: "a"},
		{Op: types.OpGet, Key: "a"},
	}
	d := &FixedScript{Commands: script}
	s := &fakeSubmitter{id: 1}
	ctx := newFakeCtx()
	d.Start(ctx, s)
	if len(s.cmds) != 1 || s.cmds[0].Key != "a" || s.cmds[0].Op != types.OpPut {
		t.Fatalf("first issue = %+v", s.cmds)
	}
	d.Completed(ctx, s, Completion{Cmd: s.cmds[0]})
	if len(s.cmds) != 2 || s.cmds[1].Op != types.OpGet {
		t.Fatalf("second issue = %+v", s.cmds)
	}
	d.Completed(ctx, s, Completion{Cmd: s.cmds[1]})
	if len(d.Results) != 2 {
		t.Fatalf("results = %d", len(d.Results))
	}
}

// TestOutstandingBoundsTheSpan: the window is about the distance from the
// oldest outstanding timestamp to the next one, not about how many are
// outstanding — one slow request closes it after PipelineWindow−1 newer ones
// even if all of those completed, and its completion reopens it at once.
func TestOutstandingBoundsTheSpan(t *testing.T) {
	var o Outstanding
	if !o.Room() {
		t.Fatal("an empty tracker has no room")
	}
	o.Remove(7) // nothing outstanding: ignored
	ts := uint64(0)
	for o.Room() {
		ts++
		o.Add(ts)
		if ts > 1 {
			o.Remove(ts) // everything but the first completes at once
		}
	}
	if ts != PipelineWindow {
		t.Fatalf("window closed after timestamp %d, want %d (the first still outstanding)", ts, PipelineWindow)
	}
	o.Remove(ts) // a repeated completion changes nothing
	if o.Room() {
		t.Fatal("a duplicate completion opened the window")
	}
	o.Remove(1)
	if !o.Room() {
		t.Fatal("the window stayed closed after the oldest request completed")
	}
	// Out-of-order completions: the oldest outstanding one is what counts.
	for i := 0; i < 3*PipelineWindow; i++ {
		if !o.Room() {
			t.Fatalf("no room at timestamp %d with two outstanding", ts)
		}
		ts++
		o.Add(ts)
		o.Remove(ts - 1)
	}
	o.Add(ts + 1)
	o.Remove(ts)
	o.Remove(ts + 1)
	if !o.Room() || o.n != 0 {
		t.Fatalf("tracker not empty after every completion: %d outstanding", o.n)
	}
}

// TestOpenLoopKeepsWithinPipelineWindow: with no in-flight cap of its own the
// open loop still stops issuing once its oldest unfinished request is a
// window behind, and resumes when that request completes.
func TestOpenLoopKeepsWithinPipelineWindow(t *testing.T) {
	d := &OpenLoop{Gen: &KVGenerator{}, Interval: time.Millisecond}
	s := &fakeSubmitter{id: 1}
	ctx := newFakeCtx()
	d.Start(ctx, s)
	complete := func(ts uint64) {
		d.Completed(ctx, s, Completion{Cmd: types.Command{Client: 1, Timestamp: ts}})
	}
	for i := 0; i < 2*PipelineWindow; i++ {
		d.OnTimer(ctx, s, DriverTimerBase)
		if n := uint64(len(s.cmds)); n > 1 {
			complete(n) // every request but the first completes
		}
	}
	if len(s.cmds) != PipelineWindow {
		t.Fatalf("submitted %d requests with the first one unfinished, want %d", len(s.cmds), PipelineWindow)
	}
	complete(1)
	d.OnTimer(ctx, s, DriverTimerBase)
	if len(s.cmds) != PipelineWindow+1 {
		t.Fatalf("submitted %d after the first request completed, want %d", len(s.cmds), PipelineWindow+1)
	}
}
