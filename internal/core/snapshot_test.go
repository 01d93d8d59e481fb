package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/kvstore"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// updateSnapshots rewrites the golden snapshot files from the current code;
// a change that must keep the bytes on disk does not run it.
var updateSnapshots = flag.Bool("update-snapshots", false, "rewrite testdata/snapshot-*.bin")

// snapshotFixture builds a replica whose log holds what a store snapshot must
// carry: a stable checkpoint with its proof in space 0, an executed entry, a
// gap, a batched spec-ordered entry, a committed entry that carries its
// client's COMMIT, a far slot in space 1, the executed-timestamp table and
// an application state. Everything is fixed, signatures included, so the
// snapshot's bytes are too.
func snapshotFixture(t *testing.T, st store.Store) *Replica {
	t.Helper()
	app := kvstore.New()
	for i := 0; i < 40; i++ {
		app.Apply(types.Command{Op: types.OpPut, Key: fmt.Sprintf("key-%03d", i), Value: []byte(fmt.Sprintf("value-%d", i*i))})
	}
	r, err := NewReplica(ReplicaConfig{Self: 0, N: 4, App: app, Auth: reviewCluster(t)[0], CheckpointInterval: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	sig := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	cmd := func(c types.ClientID, ts uint64, key string) types.Command {
		return types.Command{Client: c, Timestamp: ts, Op: types.OpPut, Key: key, Value: []byte(key + "-v")}
	}
	so := func(inst types.InstanceID, cmds ...types.Command) *SpecOrder {
		m := &SpecOrder{Inst: inst, Seq: types.SeqNumber(inst.Slot), Req: Request{Cmd: cmds[0], Sig: sig(1)}, Sig: sig(2)}
		for _, c := range cmds[1:] {
			m.Batch = append(m.Batch, Request{Cmd: c, Sig: sig(3)})
		}
		m.CmdDigest = cmds[0].Digest()
		return m
	}
	put := func(inst types.InstanceID, status Status, deps types.InstanceSet, cmds ...types.Command) *entry {
		e := &entry{inst: inst, cmd: cmds[0], deps: deps, seq: types.SeqNumber(inst.Slot + 10), status: status, so: so(inst, cmds...)}
		if len(cmds) > 1 {
			e.extra = cmds[1:]
		}
		r.log.put(e)
		return e
	}

	// Space 0: stable at 4 with three votes, entries 5 (executed), 7
	// (batched, spec-ordered) and 8 (committed by a COMMIT); 6 is a gap.
	sp0 := r.log.space(0)
	sp0.truncated, sp0.lowWater, sp0.execMark = 4, 4, 5
	sp0.execDigest, sp0.logHash = types.Digest{9}, types.Digest{8}
	for v := types.ReplicaID(0); v < 3; v++ {
		r.life.Adopt(&CheckpointMsg{Space: 0, Slot: 4, Digest: types.Digest{7}, Replica: v, Sig: sig(byte(10 + v))})
	}
	put(types.InstanceID{Space: 0, Slot: 5}, StatusExecuted, nil, cmd(1, 1, "a"))
	put(types.InstanceID{Space: 0, Slot: 7}, StatusSpecOrdered, types.InstanceSet{{Space: 0, Slot: 5}},
		cmd(2, 1, "b"), cmd(3, 1, "c"), cmd(4, 1, "d"))
	committed := put(types.InstanceID{Space: 0, Slot: 8}, StatusCommitted, types.InstanceSet{{Space: 0, Slot: 7}}, cmd(1, 2, "e"))
	reply := &SpecReply{Inst: committed.inst, Deps: committed.deps, Seq: committed.seq, CmdDigest: committed.cmd.Digest(),
		Client: 1, Timestamp: 2, Replica: 1, Result: types.Result{OK: true}, SO: committed.so, Sig: sig(20)}
	committed.clientCommit = &Commit{Client: 1, Timestamp: 2, Inst: committed.inst, Deps: committed.deps, Seq: committed.seq,
		Cert: []*SpecReply{reply}, Sigs: []ReplySig{{Replica: 2, Sig: sig(21)}, {Replica: 3, Sig: sig(22)}}, Sig: sig(23)}
	sp0.maxSlot = 8

	// Space 1: one entry far above its (empty) prefix.
	far := put(types.InstanceID{Space: 1, Slot: 60000}, StatusSpecOrdered, nil, cmd(5, 1, "far"))
	r.log.space(1).maxSlot = far.inst.Slot

	r.executedTs[1], r.executedTs[3], r.executedTs[2] = 1, 7, 4
	return r
}

// TestSnapshotBytesUnchanged: the store snapshot ezBFT cuts is byte for byte
// the one earlier versions wrote for the same state (testdata), so a store
// written by either recovers under the other.
func TestSnapshotBytesUnchanged(t *testing.T) {
	st := store.NewMemory()
	r := snapshotFixture(t, st)
	r.persistSnapshot()
	got, _, err := st.LoadSnapshot()
	if err != nil || got == nil {
		t.Fatalf("no snapshot cut: %v", err)
	}
	golden := filepath.Join("testdata", "snapshot-ezbft.bin")
	if *updateSnapshots {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the snapshot is %d bytes that differ from the %d recorded in %s", len(got), len(want), golden)
	}
}

// TestSnapshotStreamsTheTransferLayout: the streamed snapshot is exactly
// the encoding of the wholesale CATCHUP-RESP the replica would serve, for a
// state and a suffix many times larger than the stream's buffers (a few
// KiB), cut into a disk store.
func TestSnapshotStreamsTheTransferLayout(t *testing.T) {
	st, err := store.OpenDisk(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := snapshotFixture(t, st)
	app := r.cfg.App.(*kvstore.Store)
	for i := 0; i < 3000; i++ {
		app.Apply(types.Command{Op: types.OpPut, Key: fmt.Sprintf("bulk-%05d", i), Value: bytes.Repeat([]byte{byte(i)}, i%40)})
	}
	for slot := uint64(9); slot < 200; slot++ {
		e := &entry{inst: types.InstanceID{Space: 2, Slot: slot}, cmd: types.Command{Client: 9, Timestamp: slot, Op: types.OpPut, Key: "s", Value: []byte("v")},
			status: StatusExecuted, so: &SpecOrder{Inst: types.InstanceID{Space: 2, Slot: slot}, Sig: []byte("sig")}}
		r.log.put(e)
	}
	want := codec.AppendMarshal(nil, r.buildTransferState(app, nil))
	r.persistSnapshot()
	if s := r.Stats(); s.WALFailed {
		t.Fatal("the snapshot cut failed")
	}
	got, _, err := st.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100<<10 || !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes, the transfer encodes to %d: equal %v", len(got), len(want), bytes.Equal(got, want))
	}
}

// fullDisk is a disk store whose snapshot stream fails once room bytes
// went through it, as a disk that fills up halfway through a cut.
type fullDisk struct {
	*store.Disk
	room int
}

func (d *fullDisk) StreamSnapshot(write func(w io.Writer) error) error {
	return d.Disk.StreamSnapshot(func(w io.Writer) error { return write(&filling{w: w, room: d.room}) })
}

type filling struct {
	w    io.Writer
	room int
}

func (f *filling) Write(p []byte) (int, error) {
	if len(p) > f.room {
		n, _ := f.w.Write(p[:f.room])
		f.room = 0
		return n, syscall.ENOSPC
	}
	f.room -= len(p)
	return f.w.Write(p)
}

// TestFailedSnapshotKeepsThePrevious: a snapshot cut that fails halfway
// (the disk fills) turns logging off (WALFailed) and changes nothing
// durable: reopened, the store still holds the previous snapshot and the
// records after it, no partial snapshot is adopted, and a replica recovers
// from it.
func TestFailedSnapshotKeepsThePrevious(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	st := &fullDisk{Disk: disk, room: 1 << 30}
	r := snapshotFixture(t, st)
	r.persistSnapshot()
	first, _, err := disk.LoadSnapshot()
	if err != nil || first == nil {
		t.Fatalf("the first cut left no snapshot: %v", err)
	}
	vote := &CheckpointMsg{Space: 1, Slot: 8, Replica: 2, Sig: []byte("vote")}
	r.life.RecordProof(noopCtx{}, []*CheckpointMsg{vote})
	r.Sync()
	st.room = len(first) / 2
	r.persistSnapshot()
	if s := r.Stats(); !s.WALFailed {
		t.Fatal("a cut the disk could not hold did not turn logging off")
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
		t.Errorf("the partial snapshot is still there: %v", err)
	}
	got, _, err := reopened.LoadSnapshot()
	if err != nil || !bytes.Equal(got, first) {
		t.Fatalf("reopened with a %d-byte snapshot (%v); want the previous %d bytes", len(got), err, len(first))
	}
	var kinds []uint8
	if err := reopened.Replay(func(rec store.Record) error { kinds = append(kinds, rec.Kind); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != walCkptVoteKind {
		t.Fatalf("replayed record kinds %v; want the one vote logged after the snapshot", kinds)
	}
	rec, err := NewReplica(ReplicaConfig{Self: 0, N: 4, App: kvstore.New(), Auth: reviewCluster(t)[0], CheckpointInterval: 4, Store: reopened})
	if err != nil {
		t.Fatal(err)
	}
	rec.Init(noopCtx{})
	if s := rec.Stats(); s.Recoveries != 1 || s.WALFailed || rec.cfg.App.Digest() != r.cfg.App.Digest() {
		t.Fatalf("recovered %d times, WALFailed %v, state equal %v; want 1, false, true",
			s.Recoveries, s.WALFailed, rec.cfg.App.Digest() == r.cfg.App.Digest())
	}
}
