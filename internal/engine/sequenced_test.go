package engine_test

import (
	"crypto/sha256"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/fab"
	"ezbft/internal/kvstore"
	"ezbft/internal/pbft"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/zyzzyva"
)

// sequenced describes one sequenced protocol to the tests below.
type sequenced struct {
	name engine.Protocol
	// request builds the protocol's REQUEST.
	request func(cmd types.Command, sig []byte) codec.Message
	// frame reports the batch size of an ordering frame (PRE-PREPARE,
	// ORDERREQ, PROPOSE); order builds one for req, signed with a.
	frame func(m codec.Message) (int, bool)
	order func(a auth.Authenticator, view, seq uint64, req codec.Message) codec.Message
	// accepted reports whether m is what a backup sends on accepting a frame
	// (PREPARE, SPECRESPONSE, ACCEPT).
	accepted func(m codec.Message) bool
	// final reports whether m is the vote whose quorum makes a slot final
	// (COMMIT, ACCEPT; Zyzzyva executes on ORDERREQ and has none).
	final func(m codec.Message) bool
	// certify hands replica i the certificate a client forms from its
	// replies (Zyzzyva's COMMIT; nil where the replicas form their own).
	certify func(c *pumped, i int)
	// changes and executed name the stats counters of completed view
	// changes and executed commands; votes the replica's per-view vote
	// tables.
	changes, executed string
	votes             []string
}

var sequencedProtocols = []sequenced{
	{
		name:    engine.PBFT,
		request: func(cmd types.Command, sig []byte) codec.Message { return &pbft.Request{Cmd: cmd, Sig: sig} },
		frame: func(m codec.Message) (int, bool) {
			f, ok := m.(*pbft.PrePrepare)
			return batchSize(f, ok)
		},
		order: func(a auth.Authenticator, view, seq uint64, req codec.Message) codec.Message {
			r := req.(*pbft.Request)
			f := &pbft.PrePrepare{View: view, Seq: seq, CmdDigest: r.Cmd.Digest(), Req: r.Clone()}
			f.Sig = engine.SignBody(a, f)
			return f
		},
		accepted: func(m codec.Message) bool { _, ok := m.(*pbft.Prepare); return ok },
		final:    func(m codec.Message) bool { _, ok := m.(*pbft.Commit); return ok },
		changes:  "ViewChanges",
		executed: "Executed",
		votes:    []string{"vcs"},
	},
	{
		name:    engine.Zyzzyva,
		request: func(cmd types.Command, sig []byte) codec.Message { return &zyzzyva.Request{Cmd: cmd, Sig: sig} },
		frame: func(m codec.Message) (int, bool) {
			f, ok := m.(*zyzzyva.OrderReq)
			return batchSize(f, ok)
		},
		order: func(a auth.Authenticator, view, seq uint64, req codec.Message) codec.Message {
			r := req.(*zyzzyva.Request)
			// The history hash is right for a first slot only.
			d := r.Cmd.Digest()
			f := &zyzzyva.OrderReq{View: view, Seq: seq, HistHash: sha256.Sum256(append(make([]byte, 32), d[:]...)), CmdDigest: d, Req: r.Clone()}
			f.Sig = engine.SignBody(a, f)
			return f
		},
		accepted: func(m codec.Message) bool { _, ok := m.(*zyzzyva.SpecResponse); return ok },
		final:    func(codec.Message) bool { return false },
		certify: func(c *pumped, i int) {
			var cert []*zyzzyva.SpecResponse
			for _, e := range c.client {
				if sr, ok := e.msg.(*zyzzyva.SpecResponse); ok {
					cert = append(cert, sr)
				}
			}
			sr := cert[0]
			cc := &zyzzyva.CommitCert{Client: sr.Client, Timestamp: sr.Timestamp, Seq: sr.Seq, CmdDigest: sr.CmdDigest, Cert: cert}
			c.deliver(i, types.ClientNode(sr.Client), cc)
		},
		changes:  "ViewChanges",
		executed: "SpecExecuted",
		votes:    []string{"vcs"},
	},
	{
		name:    engine.FaB,
		request: func(cmd types.Command, sig []byte) codec.Message { return &fab.Request{Cmd: cmd, Sig: sig} },
		frame: func(m codec.Message) (int, bool) {
			f, ok := m.(*fab.Propose)
			return batchSize(f, ok)
		},
		order: func(a auth.Authenticator, view, seq uint64, req codec.Message) codec.Message {
			r := req.(*fab.Request)
			f := &fab.Propose{View: view, Seq: seq, CmdDigest: r.Cmd.Digest(), Req: r.Clone()}
			f.Sig = engine.SignBody(a, f)
			return f
		},
		accepted: func(m codec.Message) bool { _, ok := m.(*fab.Accept); return ok },
		final:    func(m codec.Message) bool { _, ok := m.(*fab.Accept); return ok },
		changes:  "ViewChanges",
		executed: "Executed",
		votes:    []string{"vcs"},
	},
}

func batchSize(f interface{ BatchSize() int }, ok bool) (int, bool) {
	if !ok {
		return 0, false
	}
	return f.BatchSize(), true
}

// envelope is one message in flight.
type envelope struct {
	from, to types.NodeID
	msg      codec.Message
}

// pumped is four replicas of one sequenced protocol behind an in-order
// message pump: what a replica sends is delivered, in send order, when the
// test pumps; drop filters deliveries; client-bound messages are kept;
// timers are only recorded, and fire when the test fires them. A durable
// cluster gives each replica a memory store, and sent, when set, sees
// every message as it is sent.
type pumped struct {
	t      *testing.T
	p      sequenced
	opts   engine.ReplicaOptions
	ring   *auth.HMACKeyring
	reps   []proc.Process
	apps   []types.Application
	stores []*store.Memory
	queue  []envelope
	client []envelope
	timers []map[proc.TimerID]bool
	drop   func(e envelope) bool
	sent   func(from int, msg codec.Message)
}

func newPumped(t *testing.T, p sequenced, opts engine.ReplicaOptions) *pumped {
	return newCluster(t, p, opts, false)
}

// newDurable is newPumped with a memory store per replica.
func newDurable(t *testing.T, p sequenced, opts engine.ReplicaOptions) *pumped {
	return newCluster(t, p, opts, true)
}

func newCluster(t *testing.T, p sequenced, opts engine.ReplicaOptions, durable bool) *pumped {
	t.Helper()
	c := &pumped{t: t, p: p, opts: opts, ring: auth.NewHMACKeyring([]byte("sequenced"))}
	for i := 0; i < 4; i++ {
		if durable {
			c.stores = append(c.stores, store.NewMemory())
		}
		c.reps = append(c.reps, nil)
		c.apps = append(c.apps, nil)
		c.timers = append(c.timers, nil)
		c.build(i)
	}
	for i, rep := range c.reps {
		rep.Init(nodeCtx{c, i})
	}
	return c
}

// build puts a new incarnation of replica i, with a fresh application and
// no armed timers, over its store if it has one.
func (c *pumped) build(i int) {
	e, err := engine.Lookup(c.p.name)
	if err != nil {
		c.t.Fatal(err)
	}
	o := c.opts
	o.Self, o.N, o.App = types.ReplicaID(i), 4, kvstore.New()
	o.Auth = c.ring.ForNode(types.ReplicaNode(o.Self))
	if c.stores != nil {
		o.Store = c.stores[i]
	}
	rep, err := e.NewReplica(o)
	if err != nil {
		c.t.Fatal(err)
	}
	c.reps[i], c.apps[i], c.timers[i] = rep, o.App, make(map[proc.TimerID]bool)
}

// restart crash-restarts replica i over its store: what was in flight to
// it is lost, and the new incarnation recovers before it sees anything.
func (c *pumped) restart(i int) {
	c.queue = slices.DeleteFunc(c.queue, func(e envelope) bool { return e.to == types.ReplicaNode(types.ReplicaID(i)) })
	c.build(i)
	c.reps[i].Init(nodeCtx{c, i})
}

// nodeCtx is one replica's proc.Context in a pumped cluster.
type nodeCtx struct {
	c    *pumped
	self int
}

func (x nodeCtx) Now() time.Duration { return 0 }
func (x nodeCtx) Send(to types.NodeID, m codec.Message) {
	if x.c.sent != nil {
		x.c.sent(x.self, m)
	}
	x.c.queue = append(x.c.queue, envelope{types.ReplicaNode(types.ReplicaID(x.self)), to, m})
}
func (x nodeCtx) SetTimer(id proc.TimerID, _ time.Duration) { x.c.timers[x.self][id] = true }
func (x nodeCtx) CancelTimer(id proc.TimerID)               { delete(x.c.timers[x.self], id) }
func (x nodeCtx) Charge(time.Duration)                      {}
func (x nodeCtx) Rand() *rand.Rand                          { return rand.New(rand.NewSource(int64(x.self))) }

// request builds a client-signed REQUEST.
func (c *pumped) request(client types.ClientID, ts uint64) codec.Message {
	cmd := types.Command{Client: client, Timestamp: ts, Op: types.OpPut, Key: "k", Value: []byte{byte(ts)}}
	body := c.p.request(cmd, nil).(engine.BodyMarshaler)
	return c.p.request(cmd, engine.SignBody(c.ring.ForNode(types.ClientNode(client)), body))
}

// deliver hands msg to replica i now, as if from `from`.
func (c *pumped) deliver(i int, from types.NodeID, msg codec.Message) {
	c.reps[i].Receive(nodeCtx{c, i}, from, msg)
}

// pump delivers everything in flight, and what that sends, until quiet.
func (c *pumped) pump() {
	for len(c.queue) > 0 {
		e := c.queue[0]
		c.queue = c.queue[1:]
		switch {
		case c.drop != nil && c.drop(e):
		case e.to.IsReplica():
			c.deliver(int(e.to.Replica()), e.from, e.msg)
		default:
			c.client = append(c.client, e)
		}
	}
}

// fire runs replica i's armed timers; timers they arm wait for the next
// fire.
func (c *pumped) fire(i int) {
	armed := make([]proc.TimerID, 0, len(c.timers[i]))
	for id := range c.timers[i] {
		armed = append(armed, id)
	}
	slices.Sort(armed)
	for _, id := range armed {
		if c.timers[i][id] {
			delete(c.timers[i], id)
			c.reps[i].OnTimer(nodeCtx{c, i}, id)
		}
	}
}

func (c *pumped) view(i int) uint64 {
	return c.reps[i].(interface{ View() uint64 }).View()
}

func (c *pumped) maxExec(i int) uint64 {
	return c.reps[i].(interface{ MaxExecuted() uint64 }).MaxExecuted()
}

// viewChange builds replica from's signed VIEW-CHANGE for view, with no
// stable checkpoint.
func (c *pumped) viewChange(from types.ReplicaID, view uint64, entries ...engine.ViewEntry) *engine.ViewChange {
	vc := &engine.ViewChange{View: view, Replica: from, Entries: entries}
	vc.Sig = engine.SignBody(c.ring.ForNode(types.ReplicaNode(from)), vc)
	return vc
}

// stat reads a named counter from replica i's Stats.
func (c *pumped) stat(i int, name string) uint64 {
	return reflect.ValueOf(c.reps[i]).MethodByName("Stats").Call(nil)[0].FieldByName(name).Uint()
}

// heldVotes returns the views replica i's vote tables hold votes for, and
// how many votes they hold in all. A table keyed by view counts each
// view's voters; a table keyed by sender holds one vote per sender, which
// names its view.
func (c *pumped) heldVotes(i int) (views []uint64, votes int) {
	v := reflect.ValueOf(c.reps[i]).Elem()
	for _, name := range c.p.votes {
		for it := v.FieldByName(name).MapRange(); it.Next(); {
			if it.Key().Kind() == reflect.Uint64 {
				views = append(views, it.Key().Uint())
				votes += it.Value().Len()
			} else {
				views = append(views, it.Value().Elem().FieldByName("View").Uint())
				votes++
			}
		}
	}
	return views, votes
}

// TestViewVoteTablesBounded: the per-view vote tables forget every view a
// replica has entered, and one faulty PBFT replica naming a thousand future
// views leaves at most one pending VIEW-CHANGE per sender.
func TestViewVoteTablesBounded(t *testing.T) {
	for _, p := range sequencedProtocols {
		t.Run(string(p.name)+"/20-view-changes", func(t *testing.T) {
			c := newPumped(t, p, engine.ReplicaOptions{})
			for round := uint64(1); round <= 20; round++ {
				// The primary never hears of a fresh request the backups forward
				// to it, and their suspicion timers move everyone to the next
				// view.
				view := c.view(0)
				primary := types.ReplicaNode(types.ReplicaID(view % 4))
				req := c.request(1, round)
				c.drop = func(e envelope) bool {
					return e.to == primary && reflect.TypeOf(e.msg) == reflect.TypeOf(req)
				}
				for i := range c.reps {
					if types.ReplicaNode(types.ReplicaID(i)) != primary {
						c.deliver(i, types.ClientNode(1), req)
					}
				}
				c.pump()
				for i := range c.reps {
					c.fire(i)
				}
				c.pump()
				for i := range c.reps {
					if c.view(i) != view+1 {
						t.Fatalf("round %d: replica %d in view %d, want %d", round, i, c.view(i), view+1)
					}
				}
			}
			for i := range c.reps {
				views, _ := c.heldVotes(i)
				for _, v := range views {
					if v <= c.view(i) {
						t.Errorf("replica %d (view %d) still holds votes for view %d (all: %v)", i, c.view(i), v, views)
						break
					}
				}
			}
			if got := c.stat(1, p.changes); got != 20 {
				t.Errorf("replica 1 counted %d view changes, want 20", got)
			}
		})
	}
	t.Run("pbft/view-change-spray", func(t *testing.T) {
		c := newPumped(t, sequencedProtocols[0], engine.ReplicaOptions{})
		liar := c.ring.ForNode(types.ReplicaNode(1))
		for v := uint64(1); v <= 1000; v++ {
			vc := &engine.ViewChange{View: v, Replica: 1}
			vc.Sig = engine.SignBody(liar, vc)
			c.deliver(0, types.ReplicaNode(1), vc)
		}
		c.pump()
		if _, votes := c.heldVotes(0); votes > 4 {
			t.Fatalf("one sender's 1000 VIEW-CHANGEs left %d pending, want at most n = 4", votes)
		}
	})
}

// TestNewViewNeedsQuorum: a NEW-VIEW moves a replica only on 2f+1 valid
// VIEW-CHANGEs — one replica alone cannot pull a backup into its view — and
// a VIEW-CHANGE is not valid if a frame it reports embeds a command its
// client never signed. The rejected NEW-VIEW leaves the backup's view,
// executed watermark and application state as they were; the same NEW-VIEW
// with the client's signature is accepted.
func TestNewViewNeedsQuorum(t *testing.T) {
	cases := []struct {
		name string
		sig  []byte // the reported command's signature (nil: the client's)
		// changes returns the NEW-VIEW's VIEW-CHANGEs, reporting frame.
		changes func(c *pumped, frame codec.Message) []*engine.ViewChange
		valid   bool
	}{
		{"unprompted", nil, func(c *pumped, _ codec.Message) []*engine.ViewChange {
			return []*engine.ViewChange{c.viewChange(1, 1)}
		}, false},
		{"unsigned-command", []byte("forged"), func(c *pumped, frame codec.Message) []*engine.ViewChange {
			return []*engine.ViewChange{c.viewChange(0, 1), c.viewChange(1, 1, engine.ViewEntry{Seq: 1, Frame: frame}), c.viewChange(3, 1)}
		}, false},
		{"signed-command", nil, func(c *pumped, frame codec.Message) []*engine.ViewChange {
			return []*engine.ViewChange{c.viewChange(0, 1), c.viewChange(1, 1, engine.ViewEntry{Seq: 1, Frame: frame}), c.viewChange(3, 1)}
		}, true},
	}
	for _, p := range sequencedProtocols {
		for _, tc := range cases {
			t.Run(string(p.name)+"/"+tc.name, func(t *testing.T) {
				c := newPumped(t, p, engine.ReplicaOptions{})
				req := c.request(7, 1)
				if tc.sig != nil {
					cmd := *req.(interface{ Command() *types.Command }).Command()
					req = p.request(cmd, tc.sig)
				}
				frame := p.order(c.ring.ForNode(types.ReplicaNode(0)), 0, 1, req)
				nv := &engine.NewView{View: 1, Replica: 1, Changes: tc.changes(c, frame)}
				nv.Sig = engine.SignBody(c.ring.ForNode(types.ReplicaNode(1)), nv)
				dropped, digest := c.stat(2, "DroppedInvalid"), c.apps[2].Digest()
				c.deliver(2, types.ReplicaNode(1), nv)
				if tc.valid {
					if c.view(2) != 1 || c.stat(2, "DroppedInvalid") != dropped {
						t.Fatalf("a quorum-backed NEW-VIEW was refused: view %d", c.view(2))
					}
					return
				}
				if v := c.view(2); v != 0 {
					t.Errorf("replica 2 moved to view %d", v)
				}
				if e := c.maxExec(2); e != 0 {
					t.Errorf("replica 2 executed up to %d", e)
				}
				if c.apps[2].Digest() != digest {
					t.Error("replica 2's application state changed")
				}
				if c.stat(2, "DroppedInvalid") <= dropped {
					t.Error("the NEW-VIEW was not counted as invalid")
				}
			})
		}
	}
}
