package engine_test

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	_ "ezbft/internal/core"
	"ezbft/internal/engine"
	_ "ezbft/internal/fab"
	"ezbft/internal/kvstore"
	_ "ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/types"
	"ezbft/internal/workload"
	_ "ezbft/internal/zyzzyva"
)

// timerProbe wraps a client and keeps the set of its armed timers and the
// delay of every retry timer it arms.
type timerProbe struct {
	engine.Client
	armed map[proc.TimerID]bool
	retry []time.Duration
}

type probeCtx struct {
	proc.Context
	p *timerProbe
}

func (c probeCtx) SetTimer(id proc.TimerID, d time.Duration) {
	c.p.armed[id] = true
	if id < workload.DriverTimerBase && id%4 == proc.TimerID(engine.RetryTimer) {
		c.p.retry = append(c.p.retry, d)
	}
	c.Context.SetTimer(id, d)
}

func (c probeCtx) CancelTimer(id proc.TimerID) {
	delete(c.p.armed, id)
	c.Context.CancelTimer(id)
}

func (p *timerProbe) Init(ctx proc.Context) { p.Client.Init(probeCtx{ctx, p}) }

func (p *timerProbe) Receive(ctx proc.Context, from types.NodeID, msg codec.Message) {
	p.Client.Receive(probeCtx{ctx, p}, from, msg)
}

func (p *timerProbe) OnTimer(ctx proc.Context, id proc.TimerID) {
	delete(p.armed, id)
	p.Client.OnTimer(probeCtx{ctx, p}, id)
}

// armedDriver runs a script after arming one long driver timer of its own.
type armedDriver struct{ *workload.FixedScript }

const driverTimer = workload.DriverTimerBase + 5

func (d armedDriver) Start(ctx proc.Context, s workload.Submitter) {
	ctx.SetTimer(driverTimer, time.Hour)
	d.FixedScript.Start(ctx, s)
}

// clientCluster runs one client of protocol p against four replicas on the
// simulator, the replicas in mute built fail-silent.
func clientCluster(t *testing.T, p engine.Protocol, mute map[types.ReplicaID]bool, drv workload.Driver) (*sim.Runtime, *timerProbe) {
	t.Helper()
	eng, err := engine.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := auth.NewHMACKeyring([]byte("client-core"))
	rt := sim.NewRuntime(sim.NewKernel(1), sim.ConstantDelay(5*time.Millisecond))
	const bound = 20 * time.Millisecond
	for i := 0; i < 4; i++ {
		rid := types.ReplicaID(i)
		r, err := eng.NewReplica(engine.ReplicaOptions{Self: rid, N: 4, App: kvstore.New(),
			Auth: ring.ForNode(types.ReplicaNode(rid)), LatencyBound: bound, Mute: mute[rid]})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.AddNode(r, sim.CostModel{}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.NewClient(engine.ClientOptions{ID: 0, N: 4, Auth: ring.ForNode(types.ClientNode(0)),
		Driver: drv, LatencyBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	probe := &timerProbe{Client: c, armed: make(map[proc.TimerID]bool)}
	if err := rt.AddNode(probe, sim.CostModel{}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return rt, probe
}

var protocols = []engine.Protocol{engine.EZBFT, engine.PBFT, engine.Zyzzyva, engine.FaB}

// TestClientFinishesClean: once a client's script has completed — on every
// protocol's fast path and, with a replica silent, its slow path — no
// request is outstanding and no request timer is armed: only the driver's
// own timer is.
func TestClientFinishesClean(t *testing.T) {
	for _, p := range protocols {
		for _, mute := range []map[types.ReplicaID]bool{nil, {3: true}} {
			t.Run(fmt.Sprintf("%s/mute%d", p, len(mute)), func(t *testing.T) {
				script := &workload.FixedScript{}
				for i := 0; i < 6; i++ {
					script.Commands = append(script.Commands, types.Command{Op: types.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
				}
				rt, probe := clientCluster(t, p, mute, armedDriver{script})
				if !rt.RunUntil(func() bool { return len(script.Results) == len(script.Commands) }, 30*time.Second) {
					t.Fatalf("%d of %d commands completed", len(script.Results), len(script.Commands))
				}
				if n := probe.InFlight(); n != 0 {
					t.Errorf("%d requests still in flight", n)
				}
				if len(probe.armed) != 1 || !probe.armed[driverTimer] {
					t.Errorf("armed timers %v, want only the driver's %#x", probe.armed, driverTimer)
				}
			})
		}
	}
}

// TestClientRetryDelays pins each protocol's retry schedule with every
// replica silent: PBFT, FaB and Zyzzyva double RetryTimeout per retry up to
// 64 times it; ezBFT arms its first retry at RetryTimeout and jitters every
// later one by up to a quarter around the same doubling (proc.Backoff).
func TestClientRetryDelays(t *testing.T) {
	const retryTimeout = 160 * time.Millisecond // eight latency bounds
	for _, p := range protocols {
		t.Run(string(p), func(t *testing.T) {
			script := &workload.FixedScript{Commands: []types.Command{{Op: types.OpPut, Key: "k", Value: []byte("v")}}}
			rt, probe := clientCluster(t, p, map[types.ReplicaID]bool{0: true, 1: true, 2: true, 3: true}, script)
			rt.Run(40 * time.Second)
			if len(probe.retry) < 9 {
				t.Fatalf("%d retry timers armed, want at least 9", len(probe.retry))
			}
			jittered := false
			for k, d := range probe.retry {
				want := retryTimeout << min(k, 6)
				switch {
				case p != engine.EZBFT || k == 0:
					if d != want {
						t.Fatalf("retry timer %d armed for %v, want %v", k, d, want)
					}
				case d < want-want/4 || d >= want+want/4:
					t.Fatalf("retry timer %d armed for %v, want %v ± a quarter", k, d, want)
				case d != want:
					jittered = true
				}
			}
			if p == engine.EZBFT && !jittered {
				t.Fatal("ezBFT's retry timers are not jittered")
			}
		})
	}
}
