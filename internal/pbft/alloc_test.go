package pbft

import (
	"fmt"
	"runtime"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/race"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// TestSignVerifyAllocations: signing and verifying PREPARE, COMMIT and
// REPLY allocate only the authenticator's token (HMAC: one 32-byte sign,
// nothing to verify) — the body is encoded into a pooled writer.
func TestSignVerifyAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ring := auth.NewHMACKeyring([]byte("pbft-alloc"))
	a := ring.ForNode(types.ReplicaNode(2))
	v := ring.ForNode(types.ReplicaNode(0))
	d := types.Digest{7}
	for name, m := range map[string]engine.BodyMarshaler{
		"prepare": &Prepare{View: 1, Seq: 9, CmdDigest: d, Replica: 2},
		"commit":  &Commit{View: 1, Seq: 9, CmdDigest: d, Replica: 2},
		"reply":   &Reply{View: 1, Timestamp: 3, Client: 4, Replica: 2, Result: types.Result{OK: true, Value: []byte("v")}},
	} {
		sig := engine.SignBody(a, m)
		if n := testing.AllocsPerRun(100, func() { engine.SignBody(a, m) }); n != 1 {
			t.Errorf("%s: signing allocates %v times, want 1 (the token)", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if engine.VerifyBody(v, types.ReplicaNode(2), m, sig) != nil {
				t.Fatal("valid signature rejected")
			}
		}); n != 0 {
			t.Errorf("%s: verifying allocates %v times, want 0", name, n)
		}
	}
}

// TestCheckpointEmissionCostIndependentOfState: emitting a checkpoint pins
// the application state instead of copying it, so it allocates the same at
// 1 k and 8 k keys.
func TestCheckpointEmissionCostIndependentOfState(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const interval = 64
	bytesPerEmission := func(keys int) uint64 {
		app := kvstore.New()
		for i := 0; i < keys; i++ {
			app.Apply(types.Command{Op: types.OpPut, Key: fmt.Sprintf("key-%05d", i), Value: []byte("0123456789abcdef")})
		}
		r, err := NewReplica(ReplicaConfig{
			Self: 0, N: 4, App: app, CheckpointInterval: interval,
			Auth: auth.NewHMACKeyring([]byte("pbft-alloc")).ForNode(types.ReplicaNode(0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.MaxExec = interval
		r.MaybeEmit(pvCtx{}, types.Digest{}) // first digest builds the key index
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := uint64(2); i < 2+rounds; i++ {
			r.MaxExec = i * interval
			r.MaybeEmit(pvCtx{}, types.Digest{})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	small, large := bytesPerEmission(1024), bytesPerEmission(8192)
	t.Logf("bytes per checkpoint emission: %d at 1k keys, %d at 8k keys", small, large)
	if large > small+256 {
		t.Errorf("a checkpoint emission allocates %d B at 8k keys against %d B at 1k: it grows with the state", large, small)
	}
}

// TestSnapshotCostIndependentOfState: cutting the store snapshot at a
// stable checkpoint streams the state pinned there into the store, so it
// allocates the same at 1 k and 8 k keys, with final writes made since the
// pin for the stream to undo.
func TestSnapshotCostIndependentOfState(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// One P: a pooled writer put back on one P and asked for on another is
	// allocated again, which would read as noise here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const interval = 64
	bytesPerCut := func(keys int) uint64 {
		app := kvstore.New()
		for i := 0; i < keys; i++ {
			app.Apply(types.Command{Op: types.OpPut, Key: fmt.Sprintf("key-%05d", i), Value: []byte("0123456789abcdef")})
		}
		st, err := store.OpenDisk(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		r, err := NewReplica(ReplicaConfig{
			Self: 0, N: 4, App: app, CheckpointInterval: interval,
			Auth: auth.NewHMACKeyring([]byte("pbft-alloc")).ForNode(types.ReplicaNode(0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.LogTo(st)
		cut := func(round uint64) {
			r.MaxExec = round * interval
			d := app.Digest()
			r.MaybeEmit(pvCtx{}, types.Digest{})
			for k := 0; k < 8; k++ {
				app.Apply(types.Command{Op: types.OpPut, Key: fmt.Sprintf("key-%05d", k), Value: []byte{byte(round)}})
			}
			for _, from := range []types.ReplicaID{1, 2} {
				r.Life().Record(pvCtx{}, &engine.Checkpoint{Seq: r.MaxExec, Digest: d, Replica: from})
			}
			if r.StableCheckpoint() != r.MaxExec {
				t.Fatalf("checkpoint %d did not become stable", r.MaxExec)
			}
		}
		cut(1) // the first cut builds the key index
		const rounds = 20
		var before, after runtime.MemStats
		runtime.GC() // no collection mid-measurement empties the writer pool
		runtime.ReadMemStats(&before)
		for i := uint64(2); i < 2+rounds; i++ {
			cut(i)
		}
		runtime.ReadMemStats(&after)
		if r.Stats().WALFailed {
			t.Fatal("a snapshot cut failed")
		}
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	small, large := bytesPerCut(1024), bytesPerCut(8192)
	t.Logf("bytes per stable checkpoint with a snapshot cut: %d at 1k keys, %d at 8k keys", small, large)
	if large > small+256 {
		t.Errorf("a snapshot cut allocates %d B at 8k keys against %d B at 1k: it grows with the state", large, small)
	}
}
