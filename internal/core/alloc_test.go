package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/proc"
	"ezbft/internal/race"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// fastPathFrames builds what one conflict-free request puts on the wire —
// its SPECORDER, the four SPECREPLYs and the 4-signer COMMITFAST made of them
// — with empty dependency sets and fields of the sizes the benchmark's
// workloads use.
func fastPathFrames() (so *SpecOrder, replies []*SpecReply, cf *CommitFast) {
	sig := bytes.Repeat([]byte{0xA5}, 32)
	cmd := types.Command{Client: 3, Timestamp: 70, Op: types.OpPut, Key: "key-000123", Value: bytes.Repeat([]byte{7}, 16)}
	inst := types.InstanceID{Space: 2, Slot: 70}
	so = &SpecOrder{
		Owner: 2, Inst: inst, Seq: 1, LogHash: types.Digest{1}, CmdDigest: cmd.Digest(),
		Req: Request{Cmd: cmd, Orig: noOrig, Sig: sig}, Sig: sig,
	}
	for rid := types.ReplicaID(0); rid < 4; rid++ {
		replies = append(replies, &SpecReply{
			Owner: 2, Inst: inst, Seq: 1, CmdDigest: so.CmdDigest, Client: cmd.Client, Timestamp: cmd.Timestamp,
			Replica: rid, Result: types.Result{OK: true}, SO: so, Sig: sig,
		})
	}
	return so, replies, fastCertOf(cmd.Client, replies)
}

// TestFastPathDecodeAllocations pins what decoding a conflict-free request's
// messages costs, object by object, so that a dependency set, a reader or a
// per-signer reply creeping back in shows up as a count:
//
//	SPECORDER   4: the message, its signature, the request's value and
//	               signature (the key is a string: 1 more)
//	SPECREPLY   +2 on top of its embedded SPECORDER: the message and its
//	               signature (an OK result has no value)
//	COMMITFAST  the message, the one-element certificate slice and its
//	               SPECREPLY, the signer list and 3 signatures
//
// and, for the COMMITFAST, as bytes: the count cannot see a struct growing.
func TestFastPathDecodeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	so, replies, cf := fastPathFrames()
	const specOrder = 5
	const specReply = 2 + specOrder
	for _, tc := range []struct {
		name string
		msg  codec.Message
		want float64
	}{
		{"SPECORDER", so, specOrder},
		{"SPECREPLY", replies[1], specReply},
		{"COMMITFAST", cf, 2 + specReply + 1 + 3},
	} {
		frame := codec.Marshal(tc.msg)
		got := testing.AllocsPerRun(200, func() {
			if _, err := codec.Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("decoding a %s allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}

	const runs, maxBytes = 2000, 960 // the 4-reply form took 1480
	frame := codec.Marshal(cf)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := codec.Unmarshal(frame); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > maxBytes {
		t.Errorf("decoding a %d-byte COMMITFAST allocates %d B, want <= %d", len(frame), got, maxBytes)
	} else {
		t.Logf("COMMITFAST: %d B on the wire, %d B decoded", len(frame), got)
	}
}

// TestSlowPathDecodeAllocations pins what decoding the COMMIT of a request
// slow-committed around a silent replica costs: the message and the
// client's signature, the one-element certificate slice and its SPECREPLY
// (with its SPECORDER), the signer list and 2 signatures — and, as bytes,
// well under the form that carries the three agreeing replies whole.
func TestSlowPathDecodeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, replies, _ := fastPathFrames()
	sr := replies[0]
	full := &Commit{
		Client: sr.Client, Timestamp: sr.Timestamp, Inst: sr.Inst, Seq: sr.Seq,
		Cert: replies[:3], Sig: bytes.Repeat([]byte{0x5A}, 32),
	}
	compact := *full
	compact.Cert = replies[:1]
	compact.Sigs = []ReplySig{{Replica: 1, Sig: replies[1].Sig}, {Replica: 2, Sig: replies[2].Sig}}
	const specReply = 2 + 5 // TestFastPathDecodeAllocations
	decode := func(m *Commit) (objects float64, bytes uint64) {
		frame := codec.Marshal(m)
		objects = testing.AllocsPerRun(200, func() {
			if _, err := codec.Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
		const runs = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := codec.Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	objects, compactBytes := decode(&compact)
	if want := float64(2 + 1 + specReply + 1 + 2); objects != want {
		t.Errorf("decoding a compact COMMIT allocates %v objects, want %v", objects, want)
	}
	_, fullBytes := decode(full)
	if compactBytes*4 > fullBytes*3 {
		t.Errorf("a compact COMMIT decodes to %d B, the full form to %d B: want at least a quarter less", compactBytes, fullBytes)
	}
	t.Logf("COMMIT decoded: compact %d B, full %d B", compactBytes, fullBytes)
}

// idleDriver is a workload.Driver that does nothing.
type idleDriver struct{}

func (idleDriver) Start(proc.Context, workload.Submitter)                          {}
func (idleDriver) Completed(proc.Context, workload.Submitter, workload.Completion) {}
func (idleDriver) OnTimer(proc.Context, workload.Submitter, proc.TimerID)          {}

// TestFinishFastAllocations: committing on the fast path builds the
// COMMITFAST out of the replies as they arrived — the message, its
// one-element certificate slice and the signer list, nothing per reply.
func TestFinishFastAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, replies, _ := fastPathFrames()
	cl, err := NewClient(ClientConfig{
		ID: 3, N: 4, Auth: auth.NewHMACKeyring([]byte("finish-fast")).ForNode(types.ClientNode(3)), Driver: idleDriver{},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &pendingReq{Pending: engine.Pending{Cmd: replies[0].SO.Req.Cmd}}
	group := &replyGroup{replies: replies, count: len(replies)}
	ctx := &captureCtx{sends: make([]codec.Message, 0, 8)}
	got := testing.AllocsPerRun(200, func() {
		ctx.sends = ctx.sends[:0]
		cl.finishFast(ctx, p, replies[0].Inst, group)
	})
	if got != 3 {
		t.Errorf("finishFast allocates %v objects, want 3", got)
	}
	cf := ctx.sends[0].(*CommitFast)
	if len(ctx.sends) != 4 || len(cf.Cert) != 1 || cf.Cert[0] != replies[0] || len(cf.Sigs) != 3 || cf.Sigs[2].Replica != 3 {
		t.Fatalf("finishFast sent %d messages, the first %+v", len(ctx.sends), cf)
	}
	if replies[0].Replica != 0 || replies[3].SO == nil {
		t.Fatal("finishFast wrote to a collected reply")
	}
}

// TestSnapshotCostIndependentOfState: cutting a store snapshot streams the
// application state into the store instead of building it in memory, so it
// allocates the same at 1 k and 8 k keys.
func TestSnapshotCostIndependentOfState(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// One P: a pooled writer put back on one P and asked for on another is
	// allocated again, which would read as noise here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytesPerCut := func(keys int) uint64 {
		st, err := store.OpenDisk(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		r := snapshotFixture(t, st)
		app := r.cfg.App.(*kvstore.Store)
		for i := 0; i < keys; i++ {
			app.Apply(types.Command{Op: types.OpPut, Key: fmt.Sprintf("key-%05d", i), Value: []byte("0123456789abcdef")})
		}
		r.persistSnapshot() // the first cut builds the key index
		const rounds = 20
		var before, after runtime.MemStats
		runtime.GC() // no collection mid-measurement empties the writer pool
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			app.Apply(types.Command{Op: types.OpPut, Key: "key-00007", Value: []byte{byte(i)}})
			r.persistSnapshot()
		}
		runtime.ReadMemStats(&after)
		if r.Stats().WALFailed {
			t.Fatal("a snapshot cut failed")
		}
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	small, large := bytesPerCut(1024), bytesPerCut(8192)
	t.Logf("bytes per snapshot cut: %d at 1k keys, %d at 8k keys", small, large)
	if large > small+256 {
		t.Errorf("a snapshot cut allocates %d B at 8k keys against %d B at 1k: it grows with the state", large, small)
	}
}
