package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// roundtrip appends records, syncs, and replays them back.
func roundtrip(t *testing.T, s Store) {
	t.Helper()
	var want []Record
	for i := 0; i < 100; i++ {
		data := []byte(fmt.Sprintf("record-%03d", i))
		lsn, err := s.Append(uint8(i%7), data)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, Record{LSN: lsn, Kind: uint8(i % 7), Data: data})
		if i%10 == 9 {
			if err := s.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	var got []Record
	if err := s.Replay(func(r Record) error {
		got = append(got, Record{LSN: r.LSN, Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestMemoryRoundtrip(t *testing.T) {
	s := NewMemory()
	if !s.Empty() {
		t.Fatal("fresh memory store should be empty")
	}
	roundtrip(t, s)
	if s.Empty() {
		t.Fatal("store with records should not be empty")
	}
}

func TestDiskRoundtrip(t *testing.T) {
	s, err := OpenDisk(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Empty() {
		t.Fatal("fresh disk store should be empty")
	}
	roundtrip(t, s)
}

// TestDiskReopen closes and reopens the store: all synced records and
// the snapshot must survive, and LSNs must continue where they left
// off.
func TestDiskReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Append(1, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot([]byte("state-at-20")); err != nil {
		t.Fatal(err)
	}
	var lastLSN uint64
	for i := 20; i < 30; i++ {
		lsn, err := s.Append(2, []byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Empty() {
		t.Fatal("reopened store should not be empty")
	}
	snap, cut, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "state-at-20" || cut != 20 {
		t.Fatalf("snapshot = %q cut %d, want state-at-20 cut 20", snap, cut)
	}
	var lsns []uint64
	if err := s2.Replay(func(r Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 10 || lsns[0] != 21 || lsns[9] != 30 {
		t.Fatalf("replayed LSNs %v, want 21..30", lsns)
	}
	// New appends continue the sequence.
	lsn, err := s2.Append(3, []byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != lastLSN+1 {
		t.Fatalf("next LSN %d, want %d", lsn, lastLSN+1)
	}
}

// TestSnapshotPrunesWAL checks the bounded-disk property: SaveSnapshot
// removes every prior segment and older snapshots.
func TestSnapshotPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MaxSegmentBytes = 256
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			if _, err := s.Append(1, make([]byte, 32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SaveSnapshot([]byte(fmt.Sprintf("round-%d", round))); err != nil {
			t.Fatal(err)
		}
		wals, snaps := countFiles(t, dir)
		if wals != 1 {
			t.Fatalf("round %d: %d WAL segments after snapshot, want 1 (fresh)", round, wals)
		}
		if snaps != 1 {
			t.Fatalf("round %d: %d snapshots, want 1", round, snaps)
		}
	}
	// Replay after a snapshot yields nothing (all subsumed).
	n := 0
	if err := s.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records after snapshot, want 0", n)
	}
}

func TestOpenFactory(t *testing.T) {
	if s, err := Open(BackendOff, "", false); err != nil || s != nil {
		t.Fatalf("off backend: %v %v", s, err)
	}
	if s, err := Open("", "", false); err != nil || s != nil {
		t.Fatalf("default backend: %v %v", s, err)
	}
	s, err := Open(BackendMemory, "", false)
	if err != nil || s == nil {
		t.Fatalf("memory backend: %v %v", s, err)
	}
	d, err := Open(BackendDisk, filepath.Join(t.TempDir(), "r0"), true)
	if err != nil || d == nil || !d.(*Disk).fsync {
		t.Fatalf("disk backend with fsync: %v %v", d, err)
	}
	d.Close()
	// Fsync is a promise only the disk backend keeps: off and memory
	// refuse it instead of silently not syncing.
	for _, backend := range []Backend{"", BackendOff, BackendMemory} {
		if s, err := Open(backend, t.TempDir(), true); !errors.Is(err, ErrFsyncNeedsDisk) || s != nil {
			t.Errorf("Open(%q, dir, fsync) = %v, %v; want ErrFsyncNeedsDisk", backend, s, err)
		}
	}
	if _, err := Open(Backend("bogus"), "", false); err == nil {
		t.Fatal("bogus backend should error")
	}
	if _, err := Open(BackendDisk, "", false); err == nil {
		t.Fatal("disk backend without dir should error")
	}
}

func TestMemorySnapshotIsolation(t *testing.T) {
	s := NewMemory()
	data := []byte("mutable")
	if _, err := s.Append(1, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller reuses its buffer; the store must have copied
	if err := s.Replay(func(r Record) error {
		if string(r.Data) != "mutable" {
			return fmt.Errorf("record aliased caller buffer: %q", r.Data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	snap, cut, err := s.LoadSnapshot()
	if err != nil || string(snap) != "snap" || cut != 1 {
		t.Fatalf("snapshot %q cut %d err %v", snap, cut, err)
	}
	if s.Records() != 0 {
		t.Fatalf("records after snapshot: %d", s.Records())
	}
}

func countFiles(t *testing.T, dir string) (wals, snaps int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if len(name) > 4 && name[:4] == "wal-" {
			wals++
		}
		if len(name) > 5 && name[:5] == "snap-" {
			snaps++
		}
	}
	return wals, snaps
}
