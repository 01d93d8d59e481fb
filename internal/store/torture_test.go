package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fill writes n records and closes the store, returning the directory's
// single segment path and the record payloads in order.
func fill(t *testing.T, dir string, n int) []string {
	t.Helper()
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var payloads []string
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("payload-%04d", i)
		if _, err := s.Append(uint8(i%5), []byte(p)); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return payloads
}

func segments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs
}

func replayAll(t *testing.T, dir string) []Record {
	t.Helper()
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatalf("reopen after damage: %v", err)
	}
	defer s.Close()
	var got []Record
	if err := s.Replay(func(r Record) error {
		got = append(got, Record{LSN: r.LSN, Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay after damage: %v", err)
	}
	return got
}

// TestTortureTruncatedTail cuts the segment mid-record (a torn write):
// recovery must keep the records before the tear and resume appending.
func TestTortureTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	payloads := fill(t, dir, 50)
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop 5 bytes off the file.
	if err := os.Truncate(segs[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 49 {
		t.Fatalf("recovered %d records, want 49 (last one torn)", len(got))
	}
	for i, r := range got {
		if string(r.Data) != payloads[i] {
			t.Fatalf("record %d: %q want %q", i, r.Data, payloads[i])
		}
	}
	// The store stays usable: new appends land after the valid prefix.
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lsn, err := s.Append(1, []byte("after-tear"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 50 {
		t.Fatalf("post-tear LSN %d, want 50", lsn)
	}
}

// TestTortureCorruptCRC flips payload bytes mid-file: recovery keeps
// only the records before the corruption.
func TestTortureCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, 50)
	segs := segments(t, dir)
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Walk 20 records in, then corrupt the 21st record's payload.
	off := 0
	for i := 0; i < 20; i++ {
		body := binary.LittleEndian.Uint32(buf[off:])
		off += recHeader + int(body)
	}
	buf[off+recHeader+3] ^= 0xff
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 20 {
		t.Fatalf("recovered %d records, want 20 (corruption at 21)", len(got))
	}
}

// TestTortureCorruptMidSegmentDropsLater corrupts an early segment of a
// multi-segment WAL: recovery must discard the later segments too (the
// prefix property), not resurrect records beyond the damage.
func TestTortureCorruptMidSegmentDropsLater(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxSegmentBytes = 512
	for i := 0; i < 200; i++ {
		if _, err := s.Append(1, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("%d segments, want >= 3 for this test", len(segs))
	}
	buf, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf[recHeader+5] ^= 0xff // corrupt the second segment's first record
	if err := os.WriteFile(segs[1], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	for i := 1; i < len(got); i++ {
		if got[i].LSN != got[i-1].LSN+1 {
			t.Fatalf("replay not contiguous: %d then %d", got[i-1].LSN, got[i].LSN)
		}
	}
	firstSegRecords := 0
	sbuf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(sbuf); {
		_, n, ok := decodeRecord(sbuf[off:])
		if !ok {
			break
		}
		off += n
		firstSegRecords++
	}
	if len(got) != firstSegRecords {
		t.Fatalf("recovered %d records, want exactly the first segment's %d", len(got), firstSegRecords)
	}
	if rest := segments(t, dir); len(rest) > 2 {
		t.Fatalf("later segments survived the corruption: %v", rest)
	}
}

// TestTortureDuplicateReplay appends a byte-identical copy of an
// earlier record to the file (a replayed write): Replay must
// deduplicate by LSN.
func TestTortureDuplicateReplay(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, 10)
	segs := segments(t, dir)
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first record at the end of the file.
	body := binary.LittleEndian.Uint32(buf[0:])
	first := append([]byte(nil), buf[:recHeader+int(body)]...)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(first); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := replayAll(t, dir)
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want 10 (duplicate skipped)", len(got))
	}
	seen := map[uint64]bool{}
	for _, r := range got {
		if seen[r.LSN] {
			t.Fatalf("LSN %d replayed twice", r.LSN)
		}
		seen[r.LSN] = true
	}
}

// TestTortureCorruptSnapshotFallsBack damages the newest snapshot; Open
// must fall back to an older valid one and replay from its cut.
func TestTortureCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(1, []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot([]byte("snap-old")); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 5))
	// Keep a copy of the old snapshot (SaveSnapshot deletes it).
	oldBytes, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(1, []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot([]byte("snap-new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 10))
	nb, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	nb[len(nb)-1] ^= 0xff
	if err := os.WriteFile(newPath, nb, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, cut, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "snap-old" || cut != 5 {
		t.Fatalf("fell back to %q cut %d, want snap-old cut 5", snap, cut)
	}
}

// TestTortureSoakRotationAndGC runs sustained appends with periodic
// snapshots (the checkpoint-gated GC) and random reopen cycles,
// asserting segments rotate, disk stays bounded, and the surviving
// suffix always replays contiguously above the snapshot cut.
func TestTortureSoakRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	var (
		appended uint64
		cut      uint64
	)
	open := func() *Disk {
		s, err := OpenDisk(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		s.MaxSegmentBytes = 1024
		return s
	}
	s := open()
	rotations := 0
	for round := 0; round < 40; round++ {
		burst := 20 + rng.Intn(60)
		for i := 0; i < burst; i++ {
			lsn, err := s.Append(uint8(rng.Intn(5)), make([]byte, 16+rng.Intn(64)))
			if err != nil {
				t.Fatal(err)
			}
			appended = lsn
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if segs := segments(t, dir); len(segs) > 1 {
			rotations++
		}
		switch rng.Intn(3) {
		case 0: // checkpoint: snapshot + GC
			if err := s.SaveSnapshot([]byte(fmt.Sprintf("ckpt-%d", appended))); err != nil {
				t.Fatal(err)
			}
			cut = appended
			if wals, snaps := countFiles(t, dir); wals != 1 || snaps != 1 {
				t.Fatalf("round %d: %d wals %d snaps after checkpoint, want 1/1", round, wals, snaps)
			}
		case 1: // crash + reopen
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open()
		}
		// Replay must be the contiguous suffix above the cut.
		want := cut + 1
		if err := s.Replay(func(r Record) error {
			if r.LSN != want {
				return fmt.Errorf("round %d: replayed LSN %d, want %d", round, r.LSN, want)
			}
			want++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want != appended+1 {
			t.Fatalf("round %d: replay ended at %d, want %d", round, want-1, appended)
		}
	}
	if rotations == 0 {
		t.Fatal("soak never rotated a segment; lower MaxSegmentBytes")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
