package engine_test

import (
	"reflect"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// TestWALSyncedBeforeSend pins durability-before-dispatch in the three
// sequenced protocols, as core's and pbft's tests of the same name do:
// nothing leaves a replica while a record it appended is unsynced. So what
// a backup sends on accepting a frame (PREPARE, SPECRESPONSE, ACCEPT) never
// escapes ahead of the WALPlace record a restart needs to refuse an
// equivocating primary, the primary's frame never ahead of the record of
// its own assignment, and neither a new primary's NEW-VIEW nor anything a
// replica sends in the view a NEW-VIEW moved it to ahead of the WALView
// record. The memory store counts the records appended since its last
// Sync.
func TestWALSyncedBeforeSend(t *testing.T) {
	accepted := func(p sequenced, m codec.Message) bool { return p.accepted(m) }
	frame := func(c *pumped) codec.Message {
		return c.p.order(c.ring.ForNode(types.ReplicaNode(0)), 0, 1, c.request(7, 1))
	}
	cases := []struct {
		name string
		self int
		// deliver hands replica self what it acts on; backs reports whether m
		// is the message the records back.
		deliver func(c *pumped, self int)
		backs   func(p sequenced, m codec.Message) bool
	}{
		{"backup", 3, func(c *pumped, self int) { c.deliver(self, types.ReplicaNode(0), frame(c)) }, accepted},
		{"primary", 0, func(c *pumped, self int) { c.deliver(self, types.ClientNode(7), c.request(7, 1)) },
			func(p sequenced, m codec.Message) bool { _, ok := p.frame(m); return ok }},
		{"new-view", 3, func(c *pumped, self int) {
			e := engine.ViewEntry{Seq: 1, Frame: frame(c)}
			nv := &engine.NewView{View: 1, Replica: 1,
				Changes: []*engine.ViewChange{c.viewChange(0, 1, e), c.viewChange(1, 1, e), c.viewChange(2, 1, e)}}
			nv.Sig = engine.SignBody(c.ring.ForNode(types.ReplicaNode(1)), nv)
			c.deliver(self, types.ReplicaNode(1), nv)
		}, accepted},
		{"new-primary", 1, func(c *pumped, self int) {
			for _, from := range []types.ReplicaID{0, 2, 3} {
				c.deliver(self, types.ReplicaNode(from), c.viewChange(from, 1))
			}
		}, func(_ sequenced, m codec.Message) bool { _, ok := m.(*engine.NewView); return ok }},
	}
	for _, p := range sequencedProtocols {
		for _, tc := range cases {
			t.Run(string(p.name)+"/"+tc.name, func(t *testing.T) {
				c := newDurable(t, p, engine.ReplicaOptions{})
				st := c.stores[tc.self]
				backed := false
				c.sent = func(from int, m codec.Message) {
					if from != tc.self {
						return
					}
					if n := st.Unsynced(); n != 0 {
						t.Fatalf("%T sent with %d unsynced WAL records", m, n)
					}
					backed = backed || tc.backs(p, m) && c.stat(tc.self, "WALRecords") > 0
				}
				tc.deliver(c, tc.self)
				if !backed {
					t.Fatal("the replica sent nothing that a record it had made durable backs")
				}
			})
		}
	}
}

// TestRestartAfterViewChange: a replica restarted over its store after a
// view change comes back in the new view holding what it executed in the
// old one — under Zyzzyva a slot executed speculatively and never final,
// which the replayed view entry must keep — and executes the next request
// in step with its peers. With a checkpoint every slot the restart starts
// from a snapshot, whose aux value restores Zyzzyva's history hash.
func TestRestartAfterViewChange(t *testing.T) {
	for _, p := range sequencedProtocols {
		for _, interval := range []uint64{0, 1} {
			name := map[uint64]string{0: "wal", 1: "snapshot"}[interval]
			t.Run(string(p.name)+"/"+name, func(t *testing.T) {
				c := newDurable(t, p, engine.ReplicaOptions{CheckpointInterval: interval})
				order := func(primary int, client types.ClientID) {
					c.deliver(primary, types.ClientNode(client), c.request(client, 1))
					c.pump()
				}
				order(0, 1)
				// The primary never hears of a request the backups forward, and
				// their suspicion timers move everyone to view 1.
				req := c.request(2, 1)
				c.drop = func(e envelope) bool {
					return e.to == types.ReplicaNode(0) && reflect.TypeOf(e.msg) == reflect.TypeOf(req)
				}
				for i := 1; i < 4; i++ {
					c.deliver(i, types.ClientNode(2), req)
				}
				c.pump()
				for i := range c.reps {
					c.fire(i)
				}
				c.pump()
				c.drop = nil
				order(1, 3)
				c.restart(3)
				if c.view(3) != 1 || c.maxExec(3) != 2 || c.apps[3].Digest() != c.apps[1].Digest() {
					t.Fatalf("restarted in view %d, executed up to %d; want view 1 and replica 1's state at 2", c.view(3), c.maxExec(3))
				}
				if c.stat(3, "Recoveries") != 1 {
					t.Fatal("the restarted replica did not recover from its store")
				}
				order(1, 4)
				if n := c.stat(3, "CatchupsInstalled"); n != 0 {
					t.Errorf("the restarted replica installed %d state transfers; want to execute the request itself", n)
				}
				for i := range c.reps {
					if c.maxExec(i) != 3 || c.apps[i].Digest() != c.apps[1].Digest() {
						t.Errorf("replica %d executed up to %d, state equal to replica 1's: %v; want 3, true",
							i, c.maxExec(i), c.apps[i].Digest() == c.apps[1].Digest())
					}
				}
			})
		}
	}
}
