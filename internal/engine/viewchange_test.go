package engine_test

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// viewCluster is four replicas of one sequenced protocol on a uniform 10 ms
// topology, driven by one client that issues puts PUTs in order.
func viewCluster(t *testing.T, p engine.Protocol, spec bench.Spec, puts int) (*bench.Cluster, *workload.FixedScript) {
	t.Helper()
	regions := []wan.Region{"a", "b", "c", "d"}
	pairs := make(map[[2]wan.Region]float64)
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			pairs[[2]wan.Region{regions[i], regions[j]}] = 10
		}
	}
	topo, err := wan.NewTopology("uniform", regions, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	script := &workload.FixedScript{}
	for i := 0; i < puts; i++ {
		script.Commands = append(script.Commands, types.Command{Op: types.OpPut, Key: fmt.Sprintf("a-%d", i), Value: []byte("v")})
	}
	spec.Protocol, spec.Topology, spec.ReplicaRegions = p, topo, regions
	spec.Seed, spec.LatencyBound = 1, 150*time.Millisecond
	spec.Clients = []bench.ClientGroup{{Region: "a", Count: 1, NewDriver: func(int) workload.Driver { return script }}}
	cluster, err := bench.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, script
}

// crashAfterTwo crashes the primary (replica 0) once two requests are
// done, unless spec mutes it from the start, and requires the rest to
// complete in a later view on which the survivors agree.
func crashAfterTwo(spec bench.Spec, puts int) func(t *testing.T, p sequenced) {
	return func(t *testing.T, p sequenced) {
		cluster, script := viewCluster(t, p.name, spec, puts)
		cluster.RT.Start()
		if !spec.Mute[0] {
			cluster.RT.RunUntil(func() bool { return len(script.Results) >= 2 }, 20*time.Second)
			cluster.RT.Crash(types.ReplicaNode(0))
		}
		if !cluster.RT.RunUntil(func() bool { return len(script.Results) == puts }, 120*time.Second) {
			t.Fatalf("only %d/%d completed without the primary", len(script.Results), puts)
		}
		for i := 1; i < 4; i++ {
			if v := cluster.Replicas[i].(interface{ View() uint64 }).View(); v == 0 {
				t.Errorf("replica %d never left view 0", i)
			}
		}
		cluster.RT.Run(cluster.RT.Now() + time.Second)
		for i := 2; i < 4; i++ {
			if cluster.Apps[i].Digest() != cluster.Apps[1].Digest() {
				t.Errorf("replica %d diverged from replica 1", i)
			}
		}
	}
}

// preparedSurvives: the primary orders one request; every replica accepts
// the frame, but the votes that make it final reach replica 3 alone (the
// only one to execute it) before the primary crashes. The backups' next
// forwarded request times out, and the new view must execute that batch at
// sequence number 1 everywhere — replica 3 voting again without executing
// it twice.
func preparedSurvives(t *testing.T, p sequenced) {
	c := newPumped(t, p, engine.ReplicaOptions{})
	first := c.request(1, 1)
	c.drop = func(e envelope) bool { return p.final(e.msg) && e.to != types.ReplicaNode(3) }
	c.deliver(0, types.ClientNode(1), first)
	c.pump()
	crashed := types.ReplicaNode(0)
	c.drop = func(e envelope) bool { return e.from == crashed || e.to == crashed }
	for i := 1; i < 4; i++ {
		c.deliver(i, types.ClientNode(2), c.request(2, 1))
	}
	c.pump()
	for i := 1; i < 4; i++ {
		c.fire(i)
	}
	c.pump()
	want := kvstore.New()
	want.Apply(*first.(interface{ Command() *types.Command }).Command())
	for i := 1; i < 4; i++ {
		if v := c.view(i); v != 1 {
			t.Errorf("replica %d in view %d, want 1", i, v)
		}
		if e := c.maxExec(i); e != 1 {
			t.Errorf("replica %d executed up to %d, want 1", i, e)
		}
		if c.apps[i].Digest() != want.Digest() {
			t.Errorf("replica %d did not execute exactly the first request at 1", i)
		}
		if n := c.stat(i, p.executed); n != 1 {
			t.Errorf("replica %d executed %d commands, want 1", i, n)
		}
	}
}

// certSurvivesTwoViews: in view 0 the primary's frame for A reaches
// replicas 1 and 3 only, and the votes that make it final reach replica 3
// alone, which executes A. From then on replica 0 is faulty (silent but for
// the VIEW-CHANGEs the test signs for it). Replica 2 lags through view 1,
// whose NEW-VIEW orders A again, but too few replicas vote in view 1 for a
// new certificate to form. Replica 2 then asks for view 2, and the NEW-VIEW
// it builds holds the VIEW-CHANGEs of 0, 2 and 3: replica 3's view-0
// certificate is the only proof of A, and view 2 must order A at 1 again.
func certSurvivesTwoViews(t *testing.T, p sequenced) {
	c := newPumped(t, p, engine.ReplicaOptions{})
	node := func(i int) types.NodeID { return types.ReplicaNode(types.ReplicaID(i)) }
	isFrame := func(m codec.Message) bool { _, ok := p.frame(m); return ok }
	a := c.request(1, 1)
	c.drop = func(e envelope) bool {
		return e.to == node(2) && isFrame(e.msg) || p.final(e.msg) && e.to != node(3)
	}
	c.deliver(0, types.ClientNode(1), a)
	c.pump()
	if p.certify != nil {
		p.certify(c, 3)
	}
	// View 1, without replicas 0 and 2.
	c.drop = func(e envelope) bool { return e.from == node(0) || e.to == node(0) || e.to == node(2) }
	for _, i := range []int{1, 3} {
		c.deliver(i, types.ClientNode(2), c.request(2, 2))
	}
	c.pump()
	c.fire(1)
	c.fire(3)
	c.deliver(1, node(0), c.viewChange(0, 1))
	c.pump()
	if c.view(1) != 1 || c.view(3) != 1 || c.view(2) != 0 {
		t.Fatalf("views %d %d %d, want 1 0 1 at replicas 1-3", c.view(1), c.view(2), c.view(3))
	}
	// View 2: replica 1's VIEW-CHANGE reaches replica 2 too late to count.
	c.drop = func(e envelope) bool {
		_, vc := e.msg.(*engine.ViewChange)
		return e.from == node(0) || e.to == node(0) || vc && e.from == node(1) && e.to == node(2)
	}
	for i := 1; i < 4; i++ {
		c.deliver(i, node(0), c.viewChange(0, 2))
	}
	c.deliver(2, types.ClientNode(3), c.request(3, 3))
	c.pump()
	c.fire(2) // the forward timeout: VIEW-CHANGE for view 1
	c.pump()
	c.fire(2) // no NEW-VIEW: VIEW-CHANGE for view 2
	c.pump()
	e := c.request(4, 4)
	c.deliver(2, types.ClientNode(4), e)
	c.pump()
	want := kvstore.New()
	for _, m := range []codec.Message{a, e} {
		want.Apply(*m.(interface{ Command() *types.Command }).Command())
	}
	for i := 1; i < 4; i++ {
		if v := c.view(i); v != 2 {
			t.Errorf("replica %d in view %d, want 2", i, v)
		}
		if x := c.maxExec(i); x != 2 {
			t.Errorf("replica %d executed up to %d, want 2", i, x)
		}
		if c.apps[i].Digest() != want.Digest() {
			t.Errorf("replica %d did not execute A at 1 and the next request at 2", i)
		}
	}
}

// TestViewChange: the shared view change deposes a crashed, a mute and a
// batching primary in every sequenced protocol, and carries a batch a
// quorum prepared (or accepted, or executed) into the new view unchanged.
func TestViewChange(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p sequenced)
	}{
		{"primary-crash", crashAfterTwo(bench.Spec{}, 6)},
		{"mute-primary", crashAfterTwo(bench.Spec{Mute: map[types.ReplicaID]bool{0: true}}, 3)},
		{"batched-primary-crash", crashAfterTwo(bench.Spec{BatchSize: 3, BatchDelay: 20 * time.Millisecond}, 6)},
		{"prepared-survives", preparedSurvives},
		{"cert-survives-two-views", certSurvivesTwoViews},
	}
	for _, p := range sequencedProtocols {
		for _, tc := range cases {
			t.Run(string(p.name)+"/"+tc.name, func(t *testing.T) { tc.run(t, p) })
		}
	}
}
