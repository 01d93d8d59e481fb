package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// payload is a snapshot larger than the stream's buffer.
func payload() []byte {
	b := make([]byte, 3*snapBufferBytes+123)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// inPieces streams data in pieces of varied sizes, the last one larger than
// the store's buffer.
func inPieces(data []byte) func(w io.Writer) error {
	return func(w io.Writer) error {
		for n := 1; len(data) > 0; n = n*3 + 1 {
			n = min(n, len(data))
			if len(data) > 2*snapBufferBytes {
				n = min(n, 1000)
			}
			if _, err := w.Write(data[:n]); err != nil {
				return err
			}
			data = data[n:]
		}
		return nil
	}
}

// TestStreamedSnapshotFileUnchanged: a streamed snapshot file is byte for
// byte the file SaveSnapshot writes for the same bytes, and reads back.
func TestStreamedSnapshotFileUnchanged(t *testing.T) {
	data := payload()
	files := make([][]byte, 2)
	for i, save := range []func(d *Disk) error{
		func(d *Disk) error { return d.SaveSnapshot(data) },
		func(d *Disk) error { return d.StreamSnapshot(inPieces(data)) },
	} {
		dir := t.TempDir()
		d, err := OpenDisk(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Append(1, []byte("rec")); err != nil {
			t.Fatal(err)
		}
		if err := save(d); err != nil {
			t.Fatal(err)
		}
		if got, cut, err := d.LoadSnapshot(); err != nil || cut != 1 || !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes at cut %d (%v); want %d at 1", len(got), cut, err, len(data))
		}
		d.Close()
		if files[i], err = os.ReadFile(filepath.Join(dir, "snap-0000000000000001.snap")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the streamed snapshot file differs from the one written from bytes")
	}
}

// TestFailedStreamKeepsSnapshotAndLog: a stream that fails halfway — its
// writer's error, or the disk's — leaves the previous snapshot and every
// record after it in place, and no temp file behind.
func TestFailedStreamKeepsSnapshotAndLog(t *testing.T) {
	errFull := errors.New("disk full")
	halfway := func(w io.Writer) error {
		if err := inPieces(payload()[:snapBufferBytes+10])(w); err != nil {
			return err
		}
		return errFull
	}
	for name, open := range map[string]func(t *testing.T) Streamer{
		"memory": func(*testing.T) Streamer { return NewMemory() },
		"disk": func(t *testing.T) Streamer {
			d, err := OpenDisk(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			if err := s.SaveSnapshot([]byte("previous")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(2, []byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := s.StreamSnapshot(halfway); !errors.Is(err, errFull) {
				t.Fatalf("the failed stream returned %v; want its error", err)
			}
			if got, cut, err := s.LoadSnapshot(); err != nil || cut != 0 || string(got) != "previous" {
				t.Fatalf("snapshot %q at cut %d (%v); want the previous one at 0", got, cut, err)
			}
			var recs []string
			if err := s.Replay(func(r Record) error { recs = append(recs, string(r.Data)); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0] != "after" {
				t.Fatalf("replayed %q; want the record after the snapshot", recs)
			}
			if d, ok := s.(*Disk); ok {
				if _, err := os.Stat(filepath.Join(d.dir, snapTemp)); !os.IsNotExist(err) {
					t.Fatalf("the temp file is still there: %v", err)
				}
			}
		})
	}
}

// TestStaleTempSnapshotIgnored: a temp snapshot a crash cut short —
// header still zero, payload partial — is never adopted: opening the store
// recovers the previous snapshot and the log, and removes the temp file.
func TestStaleTempSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveSnapshot([]byte("previous")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	stale := append(make([]byte, snapHeader), payload()[:snapBufferBytes]...)
	if err := os.WriteFile(filepath.Join(dir, snapTemp), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, _, err := d.LoadSnapshot(); err != nil || string(got) != "previous" {
		t.Fatalf("snapshot %q (%v); want the previous one", got, err)
	}
	n := 0
	if err := d.Replay(func(Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("replayed %d records (%v); want 1", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapTemp)); !os.IsNotExist(err) {
		t.Fatalf("the stale temp file is still there: %v", err)
	}
}
