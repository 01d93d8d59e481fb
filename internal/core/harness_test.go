package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/proc"
	"ezbft/internal/sim"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// testCluster wires N replicas plus clients onto the simulator for
// white-box protocol tests.
type testCluster struct {
	t        *testing.T
	rt       *sim.Runtime
	n        int
	replicas []*Replica
	apps     []*kvstore.Store
	clients  []*Client
	drivers  []*workload.FixedScript
}

type clusterOpts struct {
	n             int
	delay         time.Duration
	mute          map[types.ReplicaID]bool
	byz           map[types.ReplicaID]byzantine
	slowTimeout   time.Duration
	retryTimeout  time.Duration
	resendTimeout time.Duration
	batchSize     int
	batchDelay    time.Duration
	ckptInterval  uint64
	logRetention  uint64
	seed          int64
	// product builds the replicas the way every running system does —
	// through the engine constructor — and installs no execution observer,
	// so the ExecutedLog-based checks do not apply.
	product bool
	// driver, if set, wraps client i's script in the driver the client runs.
	driver func(i int, script *workload.FixedScript) workload.Driver
}

func defaultOpts() clusterOpts {
	return clusterOpts{
		n:             4,
		delay:         10 * time.Millisecond,
		slowTimeout:   200 * time.Millisecond,
		retryTimeout:  time.Second,
		resendTimeout: 500 * time.Millisecond,
		seed:          1,
	}
}

// newTestCluster builds a cluster with one client per script.
func newTestCluster(t *testing.T, opts clusterOpts, leaders []types.ReplicaID, scripts [][]types.Command) *testCluster {
	t.Helper()
	kernel := sim.NewKernel(opts.seed)
	rt := sim.NewRuntime(kernel, sim.ConstantDelay(opts.delay))

	nodes := make([]types.NodeID, 0, opts.n+len(scripts))
	for i := 0; i < opts.n; i++ {
		nodes = append(nodes, types.ReplicaNode(types.ReplicaID(i)))
	}
	for i := range scripts {
		nodes = append(nodes, types.ClientNode(types.ClientID(i)))
	}
	provider, err := auth.NewProvider(auth.SchemeHMAC, nodes)
	if err != nil {
		t.Fatal(err)
	}

	tc := &testCluster{t: t, rt: rt, n: opts.n}
	for i := 0; i < opts.n; i++ {
		rid := types.ReplicaID(i)
		app := kvstore.New()
		a, err := provider.ForNode(types.ReplicaNode(rid))
		if err != nil {
			t.Fatal(err)
		}
		var rep *Replica
		if opts.product {
			p, err := ezEngine{}.NewReplica(engine.ReplicaOptions{
				Self: rid, N: opts.n, App: app, Auth: a,
				BatchSize: opts.batchSize, BatchDelay: opts.batchDelay,
				CheckpointInterval: opts.ckptInterval, LogRetention: opts.logRetention,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep = p.(*Replica)
		} else {
			var behavior engine.Behavior
			if mk := opts.byz[rid]; mk != nil {
				behavior = mk(rid, opts.n, a)
			}
			rep, err = NewReplica(ReplicaConfig{
				Self:               rid,
				N:                  opts.n,
				App:                app,
				Auth:               a,
				ResendTimeout:      opts.resendTimeout,
				BatchSize:          opts.batchSize,
				BatchDelay:         opts.batchDelay,
				CheckpointInterval: opts.ckptInterval,
				LogRetention:       opts.logRetention,
				Mute:               opts.mute[rid],
				Behavior:           behavior,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep.RecordExecutions()
		}
		if err := rt.AddNode(rep, sim.CostModel{}); err != nil {
			t.Fatal(err)
		}
		tc.replicas = append(tc.replicas, rep)
		tc.apps = append(tc.apps, app)
	}
	for i, script := range scripts {
		cid := types.ClientID(i)
		a, err := provider.ForNode(types.ClientNode(cid))
		if err != nil {
			t.Fatal(err)
		}
		driver := &workload.FixedScript{Commands: script}
		var run workload.Driver = driver
		if opts.driver != nil {
			run = opts.driver(i, driver)
		}
		cl, err := NewClient(ClientConfig{
			ID:              cid,
			N:               opts.n,
			Leader:          leaders[i],
			Auth:            a,
			Driver:          run,
			SlowPathTimeout: opts.slowTimeout,
			RetryTimeout:    opts.retryTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.AddNode(cl, sim.CostModel{}); err != nil {
			t.Fatal(err)
		}
		tc.clients = append(tc.clients, cl)
		tc.drivers = append(tc.drivers, driver)
	}
	return tc
}

// run starts the cluster and waits until every scripted command completed
// (or the deadline passes).
func (tc *testCluster) run(deadline time.Duration) bool {
	tc.rt.Start()
	return tc.rt.RunUntil(func() bool {
		for i, d := range tc.drivers {
			if len(d.Results) < len(d.Commands) {
				_ = i
				return false
			}
		}
		return true
	}, deadline)
}

// faulty reports whether a replica was built mute or Byzantine.
func faulty(r *Replica) bool { return r.cfg.Mute || r.cfg.Behavior != nil }

// correctReplicas returns the replicas without byzantine behaviour.
func (tc *testCluster) correctReplicas() []*Replica {
	out := make([]*Replica, 0, tc.n)
	for _, r := range tc.replicas {
		if !faulty(r) {
			out = append(out, r)
		}
	}
	return out
}

// checkConsistency verifies the paper's Consistency property on the correct
// replicas: (a) no two replicas committed different commands at the same
// instance, and (b) interfering commands executed in the same relative
// order everywhere.
func (tc *testCluster) checkConsistency() {
	tc.t.Helper()
	correct := tc.correctReplicas()

	// Batched instances execute several commands at one instance; slots are
	// therefore keyed by (instance, batch position).
	type slotKey struct {
		inst types.InstanceID
		pos  int
	}

	// (a) same command per (instance, batch position).
	byInst := make(map[slotKey]types.Digest)
	for _, r := range correct {
		for _, rec := range r.ExecutedLog() {
			d := rec.Cmd.Digest()
			k := slotKey{rec.Inst, rec.Pos}
			if prev, ok := byInst[k]; ok && prev != d {
				tc.t.Fatalf("consistency violation: two commands executed at %v[%d]", rec.Inst, rec.Pos)
			}
			byInst[k] = d
		}
	}

	// (b) identical relative order of interfering commands.
	ref := correct[0].ExecutedLog()
	for _, r := range correct[1:] {
		log := r.ExecutedLog()
		pos := make(map[slotKey]int, len(log))
		for i, rec := range log {
			pos[slotKey{rec.Inst, rec.Pos}] = i
		}
		for i := 0; i < len(ref); i++ {
			for j := i + 1; j < len(ref); j++ {
				if !ref[i].Cmd.Interferes(ref[j].Cmd) {
					continue
				}
				pi, oki := pos[slotKey{ref[i].Inst, ref[i].Pos}]
				pj, okj := pos[slotKey{ref[j].Inst, ref[j].Pos}]
				if oki && okj && pi > pj {
					tc.t.Fatalf("interfering commands %v and %v ordered differently at %v",
						ref[i].Inst, ref[j].Inst, r.cfg.Self)
				}
			}
		}
	}
}

// checkStateConvergence verifies every correct replica reached the same
// final application state.
func (tc *testCluster) checkStateConvergence() {
	tc.t.Helper()
	correct := tc.correctReplicas()
	ref := tc.apps[correct[0].cfg.Self].Digest()
	for _, r := range correct[1:] {
		if got := tc.apps[r.cfg.Self].Digest(); got != ref {
			tc.t.Fatalf("state divergence: %v has %v, %v has %v",
				correct[0].cfg.Self, ref, r.cfg.Self, got)
		}
	}
}

// checkNontriviality verifies every executed non-noop command was proposed
// by a scripted client.
func (tc *testCluster) checkNontriviality() {
	tc.t.Helper()
	proposed := make(map[types.Digest]bool)
	for i, d := range tc.drivers {
		for seq, base := range d.Commands {
			cmd := base
			cmd.Client = types.ClientID(i)
			cmd.Timestamp = uint64(seq + 1)
			proposed[cmd.Digest()] = true
		}
	}
	for _, r := range tc.correctReplicas() {
		for _, rec := range r.ExecutedLog() {
			if rec.Cmd.IsNoop() {
				continue
			}
			if !proposed[rec.Cmd.Digest()] {
				tc.t.Fatalf("nontriviality violation: %v executed unproposed command %v",
					r.cfg.Self, rec.Cmd)
			}
		}
	}
}

func putCmd(key, val string) types.Command {
	return types.Command{Op: types.OpPut, Key: key, Value: []byte(val)}
}

func getCmd(key string) types.Command { return types.Command{Op: types.OpGet, Key: key} }

func incrCmd(key string) types.Command { return types.Command{Op: types.OpIncr, Key: key} }

// uniqueKeyScripts builds per-client scripts over disjoint keys.
func uniqueKeyScripts(clients, perClient int) [][]types.Command {
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		cmds := make([]types.Command, perClient)
		for i := range cmds {
			cmds[i] = putCmd(fmt.Sprintf("c%d-k%d", c, i), fmt.Sprintf("v%d", i))
		}
		scripts[c] = cmds
	}
	return scripts
}

// hotKeyScripts builds per-client scripts all hitting one key.
func hotKeyScripts(clients, perClient int) [][]types.Command {
	scripts := make([][]types.Command, clients)
	for c := range scripts {
		cmds := make([]types.Command, perClient)
		for i := range cmds {
			cmds[i] = putCmd("hot", fmt.Sprintf("c%d-v%d", c, i))
		}
		scripts[c] = cmds
	}
	return scripts
}

// delaySpecOrders returns a sim.Filter adding extra delay to SPECORDER
// messages matching (from, to); used to reproduce the paper's exact
// arrival orders in the Fig 2 / Fig 3 traces.
// noopCtx is a throwaway proc.Context for invoking handlers directly in
// validation tests.
type noopCtx struct{}

func (noopCtx) Now() time.Duration                   { return 0 }
func (noopCtx) Send(types.NodeID, codec.Message)     {}
func (noopCtx) SetTimer(proc.TimerID, time.Duration) {}
func (noopCtx) CancelTimer(proc.TimerID)             {}
func (noopCtx) Charge(time.Duration)                 {}
func (noopCtx) Rand() *rand.Rand                     { return rand.New(rand.NewSource(0)) }

func delaySpecOrders(rules map[[2]types.ReplicaID]time.Duration) sim.Filter {
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if _, ok := msg.(*SpecOrder); !ok {
			return sim.Deliver, 0
		}
		if !from.IsReplica() || !to.IsReplica() {
			return sim.Deliver, 0
		}
		if d, ok := rules[[2]types.ReplicaID{from.Replica(), to.Replica()}]; ok {
			return sim.Deliver, d
		}
		return sim.Deliver, 0
	}
}
