package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Backend names a durability backend for the factory.
type Backend string

const (
	// BackendOff disables durability entirely: Open returns a nil Store
	// and the replica keeps no write-ahead state (the pre-durability
	// behaviour).
	BackendOff Backend = "off"
	// BackendMemory keeps the WAL and snapshot in process memory. It
	// costs one buffer copy per record, survives a replica teardown as
	// long as the Store handle itself is retained (the scenario harness
	// restarts replicas from it), and is the default everywhere so the
	// simulated paper figures stay byte-identical.
	BackendMemory Backend = "memory"
	// BackendDisk persists the WAL and snapshot under a directory; a
	// replica restarted from the same directory recovers its state.
	BackendDisk Backend = "disk"
)

// Record is one write-ahead-log entry. Kind is protocol-defined (the
// store does not interpret it); LSN is the store-assigned log sequence
// number, strictly increasing across the store's lifetime.
type Record struct {
	LSN  uint64
	Kind uint8
	Data []byte
}

// Store is the pluggable durability contract a replica writes its
// ordering-critical state through. A Store has a single owner (the
// replica's process loop); implementations are not required to be
// safe for concurrent use.
//
// The write path is group-committed: Append buffers a record and
// assigns its LSN, and Sync makes everything appended so far durable.
// Replicas call Sync once per handler invocation that appended, so one
// fsync covers every record of the handler (the "group fsync" batching
// that keeps the hot path fast).
//
// SaveSnapshot atomically replaces the snapshot with a state dump that
// subsumes every record appended so far, and prunes those records: a
// subsequent Replay yields only records appended after the snapshot.
// Tying SaveSnapshot to the checkpoint low-water mark is what keeps the
// durable footprint bounded. A Streamer also takes the dump as a stream.
type Store interface {
	// Append buffers one record and returns its assigned LSN (>= 1).
	Append(kind uint8, data []byte) (uint64, error)
	// Sync makes all appended records durable (group commit point).
	Sync() error
	// SaveSnapshot atomically replaces the snapshot and prunes every
	// WAL record appended before the call.
	SaveSnapshot(data []byte) error
	// LoadSnapshot returns the durable snapshot and the LSN cut it
	// covers (records with LSN <= cut are subsumed). data is nil when
	// no snapshot exists.
	LoadSnapshot() (data []byte, cut uint64, err error)
	// Replay streams the durable records above the snapshot cut in LSN
	// order. fn returning an error stops the replay and propagates it.
	Replay(fn func(Record) error) error
	// Empty reports whether the store holds no durable state at all —
	// a fresh store, meaning there is nothing to recover.
	Empty() bool
	// Close releases resources; the Store is unusable afterwards.
	Close() error
}

// Streamer is a Store that takes its snapshot as a stream, so that
// neither the replica nor the store holds the dump whole in memory.
// StreamSnapshot does what SaveSnapshot does, with the bytes write writes
// to the io.Writer it is handed; if write, or the store, fails, the
// previous snapshot and the records stay as they were. Both backends are
// Streamers, and their SaveSnapshot is StreamSnapshot of its bytes.
type Streamer interface {
	Store
	StreamSnapshot(write func(w io.Writer) error) error
}

// writeBytes is the snapshot stream of data.
func writeBytes(data []byte) func(w io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// ErrFsyncNeedsDisk is returned by Open when fsync is asked of a backend
// that keeps nothing on disk: the off and memory backends cannot make a
// record survive power loss, so the request would go silently unmet.
var ErrFsyncNeedsDisk = errors.New("store: fsync requires the disk backend")

// Open builds a Store for the named backend. BackendOff (and "") with
// an empty dir returns (nil, nil): durability disabled. dir is only
// used by BackendDisk, where it must be a per-replica directory. fsync
// with any backend but BackendDisk is ErrFsyncNeedsDisk.
func Open(backend Backend, dir string, fsync bool) (Store, error) {
	if fsync && (backend == BackendOff || backend == "" || backend == BackendMemory) {
		return nil, ErrFsyncNeedsDisk
	}
	switch backend {
	case BackendOff, "":
		return nil, nil
	case BackendMemory:
		return NewMemory(), nil
	case BackendDisk:
		return OpenDisk(dir, fsync)
	default:
		return nil, fmt.Errorf("store: unknown backend %q (want off, memory, or disk)", backend)
	}
}

// Memory is the in-process Store: a record slice and a snapshot buffer.
// It survives a replica teardown as long as the handle is retained, so
// the scenario harness uses it to rebuild hard-torn-down replicas.
type Memory struct {
	records []Record
	snap    []byte
	snapCut uint64
	next    uint64 // next LSN to assign
	synced  int    // records made durable by the last Sync
}

var _ Streamer = (*Memory)(nil)

// NewMemory builds an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{next: 1}
}

// Append implements Store. The data is copied.
func (m *Memory) Append(kind uint8, data []byte) (uint64, error) {
	lsn := m.next
	m.next++
	m.records = append(m.records, Record{
		LSN:  lsn,
		Kind: kind,
		Data: append([]byte(nil), data...),
	})
	return lsn, nil
}

// Sync implements Store. Memory is always "durable"; Sync only records
// the commit point so tests can observe group-commit batching.
func (m *Memory) Sync() error {
	m.synced = len(m.records)
	return nil
}

// SaveSnapshot implements Store.
func (m *Memory) SaveSnapshot(data []byte) error { return m.StreamSnapshot(writeBytes(data)) }

// StreamSnapshot implements Streamer: the stream is copied into a new
// buffer, which replaces the snapshot once write succeeded.
func (m *Memory) StreamSnapshot(write func(w io.Writer) error) error {
	buf := bytes.NewBuffer([]byte{}) // an empty snapshot is still a snapshot
	if err := write(buf); err != nil {
		return err
	}
	m.snap = buf.Bytes()
	m.snapCut = m.next - 1
	m.records = m.records[:0]
	m.synced = 0
	return nil
}

// LoadSnapshot implements Store.
func (m *Memory) LoadSnapshot() ([]byte, uint64, error) {
	if m.snap == nil {
		return nil, 0, nil
	}
	return append([]byte(nil), m.snap...), m.snapCut, nil
}

// Replay implements Store.
func (m *Memory) Replay(fn func(Record) error) error {
	for _, rec := range m.records {
		if rec.LSN <= m.snapCut {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Empty implements Store.
func (m *Memory) Empty() bool {
	return m.snap == nil && len(m.records) == 0
}

// Close implements Store.
func (m *Memory) Close() error { return nil }

// Records returns the number of retained (post-snapshot) records, for
// tests and stats.
func (m *Memory) Records() int { return len(m.records) }

// Unsynced returns the number of records appended since the last Sync or
// SaveSnapshot: a test reads it to see that nothing left a replica before
// the records backing it were synced.
func (m *Memory) Unsynced() int { return len(m.records) - m.synced }
