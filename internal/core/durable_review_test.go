package core

import (
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// reviewCluster builds the authenticators for a bare 4-replica cluster plus
// client 0, for white-box tests that drive one replica's handlers directly.
func reviewCluster(t *testing.T) []auth.Authenticator {
	t.Helper()
	const n = 4
	nodes := make([]types.NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		nodes = append(nodes, types.ReplicaNode(types.ReplicaID(i)))
	}
	nodes = append(nodes, types.ClientNode(0))
	provider, err := auth.NewProvider(auth.SchemeHMAC, nodes)
	if err != nil {
		t.Fatal(err)
	}
	auths := make([]auth.Authenticator, 0, len(nodes))
	for _, node := range nodes {
		a, err := provider.ForNode(node)
		if err != nil {
			t.Fatal(err)
		}
		auths = append(auths, a)
	}
	return auths
}

// TestTailCatchupEntryEvidence pins the tail state-transfer hardening: a
// suffix entry is adopted only when it is covered by the response's verified
// checkpoint proof or carries a leader-signed SPECORDER binding its
// commands, and responses are ignored outright unless a catch-up request is
// actually in flight. A single Byzantine responder must not be able to
// plant fabricated "committed" entries in the live log through a tail merge.
func TestTailCatchupEntryEvidence(t *testing.T) {
	const n = 4
	auths := reviewCluster(t)
	r, err := NewReplica(ReplicaConfig{Self: 0, N: n, App: kvstore.New(), Auth: auths[0], CheckpointInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := noopCtx{}
	// A stable checkpoint R1 voted for, to solicit a transfer round from.
	solicited := &engine.StableCheckpoint[*CheckpointMsg]{Votes: []*CheckpointMsg{{Replica: 1}}}
	spaces := func() []SpaceCkpt {
		out := make([]SpaceCkpt, n)
		for i := range out {
			out[i] = SpaceCkpt{Space: types.ReplicaID(i)}
		}
		return out
	}

	cmd := types.Command{Client: 0, Timestamp: 1, Op: types.OpPut, Key: "k", Value: []byte("v")}
	inst := types.InstanceID{Space: 1, Slot: 1}
	unproven := HistEntry{
		Inst:   inst,
		Status: HistCommitted,
		Cmd:    cmd,
		Deps:   types.NewInstanceSet(),
		Seq:    1,
		Owner:  1,
	}

	// A solicited tail whose "committed" entry has neither checkpoint
	// coverage (LowWater 0: no proof was verified) nor a SPECORDER: the
	// entry must be dropped, not merged into the live log.
	r.life.Request(ctx, solicited)
	m := &CatchupResp{Replica: 1, Tail: true, Spaces: spaces(), Suffix: []HistEntry{unproven}}
	m.Sig = engine.SignBody(auths[1], m)
	r.life.HandleCatchupResp(ctx, m)
	if r.log.get(inst) != nil || len(r.pendingExec) != 0 {
		t.Fatal("unproven tail entry was adopted into the live log")
	}
	if r.stats.DroppedInvalid == 0 {
		t.Fatal("dropped tail entry was not counted as invalid")
	}

	// The same entry under a SPECORDER whose signature does not verify
	// against the space's leader must be dropped too.
	forged := &SpecOrder{
		Owner:     1,
		Inst:      inst,
		Deps:      types.NewInstanceSet(),
		Seq:       1,
		CmdDigest: cmd.Digest(),
		Req:       Request{Cmd: cmd},
	}
	forged.Sig = engine.SignBody(auths[2], forged) // signed by R2; space 1 is R1's
	bad := unproven
	bad.SO = forged
	r.life.Request(ctx, solicited)
	m = &CatchupResp{Replica: 1, Tail: true, Spaces: spaces(), Suffix: []HistEntry{bad}}
	m.Sig = engine.SignBody(auths[1], m)
	r.life.HandleCatchupResp(ctx, m)
	if r.log.get(inst) != nil {
		t.Fatal("tail entry with a forged SPECORDER signature was adopted")
	}

	// With the genuine leader signature the entry is adopted and executes.
	so := &SpecOrder{
		Owner:     1,
		Inst:      inst,
		Deps:      types.NewInstanceSet(),
		Seq:       1,
		CmdDigest: cmd.Digest(),
		Req:       Request{Cmd: cmd},
	}
	so.Sig = engine.SignBody(auths[1], so)
	proven := unproven
	proven.SO = so
	r.life.Request(ctx, solicited)
	m = &CatchupResp{Replica: 1, Tail: true, Spaces: spaces(), Suffix: []HistEntry{proven}}
	m.Sig = engine.SignBody(auths[1], m)
	r.life.HandleCatchupResp(ctx, m)
	if e := r.log.get(inst); e == nil || e.status < StatusCommitted {
		t.Fatal("leader-signed tail entry was not adopted")
	}

	// An unsolicited response is ignored even when its evidence is valid.
	cmd2 := types.Command{Client: 0, Timestamp: 2, Op: types.OpPut, Key: "k2", Value: []byte("v2")}
	inst2 := types.InstanceID{Space: 1, Slot: 2}
	so2 := &SpecOrder{
		Owner:     1,
		Inst:      inst2,
		Deps:      types.NewInstanceSet(),
		Seq:       2,
		CmdDigest: cmd2.Digest(),
		Req:       Request{Cmd: cmd2},
	}
	so2.Sig = engine.SignBody(auths[1], so2)
	h2 := HistEntry{Inst: inst2, Status: HistCommitted, Cmd: cmd2, Deps: types.NewInstanceSet(), Seq: 2, Owner: 1, SO: so2}
	m = &CatchupResp{Replica: 1, Tail: true, Spaces: spaces(), Suffix: []HistEntry{h2}}
	m.Sig = engine.SignBody(auths[1], m)
	r.life.HandleCatchupResp(ctx, m) // no round is in flight here
	if r.log.get(inst2) != nil {
		t.Fatal("unsolicited catch-up response was installed")
	}
}

// sendProbeCtx reports every outbound message to the test.
type sendProbeCtx struct {
	noopCtx
	onSend func(to types.NodeID, msg codec.Message)
}

func (c *sendProbeCtx) Send(to types.NodeID, msg codec.Message) { c.onSend(to, msg) }

// TestWALSyncedBeforeSend pins durability-before-dispatch: no message may
// leave the replica while WAL records appended by the current handler are
// still unsynced. On the live TCP substrate ctx.Send writes the socket
// immediately, so syncing only at handler end would let a SPECREPLY escape
// whose backing acceptance record a power loss could erase.
// The memory store counts the records appended since its last Sync.
func TestWALSyncedBeforeSend(t *testing.T) {
	const n = 4
	auths := reviewCluster(t)
	st := store.NewMemory()
	r, err := NewReplica(ReplicaConfig{Self: 0, N: n, App: kvstore.New(), Auth: auths[0], Store: st, CheckpointInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	ctx := &sendProbeCtx{onSend: func(to types.NodeID, msg codec.Message) {
		sent++
		if st.Unsynced() != 0 {
			t.Fatalf("%T sent with %d unsynced WAL records", msg, st.Unsynced())
		}
	}}

	// Participant path: accepting the leader's SPECORDER appends the
	// acceptance record and replies to the client; the record must be
	// synced before the SPECREPLY leaves.
	cmd := types.Command{Client: 0, Timestamp: 1, Op: types.OpPut, Key: "k", Value: []byte("v")}
	req := Request{Cmd: cmd}
	req.Sig = engine.SignBody(auths[n], &req) // auths[n] is client 0
	so := &SpecOrder{
		Owner:     1,
		Inst:      types.InstanceID{Space: 1, Slot: 1},
		Deps:      types.NewInstanceSet(),
		Seq:       1,
		CmdDigest: cmd.Digest(),
		Req:       req,
	}
	so.Sig = engine.SignBody(auths[1], so)
	r.Receive(ctx, types.ReplicaNode(1), so)
	if sent == 0 {
		t.Fatal("acceptance produced no outbound message")
	}
	if r.Stats().WALRecords == 0 {
		t.Fatal("acceptance appended no WAL record")
	}
}
