// Package kvstore implements the replicated key-value store application the
// paper uses for its evaluation ("We implemented a replicated key-value
// store to evaluate the protocols"). It is the reference implementation of
// the pluggable types.Application contract — deployments replace it with
// their own state machine through the application factories on every
// substrate — and additionally supports the speculative-execution contract
// ezBFT requires: commands are first executed speculatively on an overlay;
// the overlay can be rolled back wholesale and commands re-executed in
// final order on the base state.
//
// One goroutine, the owning replica's, writes a store; others may observe
// it at the same time (Digest, Get, Len, Snapshot, retained states), as
// types.Application requires of Digest. One read-write mutex guards it all.
//
// Cost model of the whole-store operations. Digest, Snapshot and
// WriteState visit the keys in sorted order; the store keeps that order as
// an index built on their first call and maintained incrementally after it
// (a key new to the final state is queued and merged in on the next
// whole-store call), so none re-sorts or allocates key slices, and Digest
// allocates nothing at steady state. A store that was never digested or
// serialized keeps no index: ezBFT, whose CHECKPOINT votes an execution
// digest, pays for it only with a durable store (a snapshot per stable
// checkpoint) or when it serves a transfer. The store is also a
// types.Retainer: Retain pins the current final state in O(1) by keeping an
// undo record (key, previous value, existed) of every final write made
// while any state is retained; serializing a retained state replays those
// records over the current state. The records exist only while a state is
// retained, their storage is reused, and Restore drops them along with
// every retained state. PBFT, Zyzzyva and FaB retain a state at each
// checkpoint (engine.StateKeeper) and serialize it only to serve a state
// transfer or cut a durable snapshot.
//
// Snapshot builds the serialized state in one buffer of its exact size.
// WriteState (types.StateWriter), on the store and on a retained state,
// streams the same bytes to an io.Writer through the store's scratch in
// chunks of a few KiB, allocating nothing in proportion to the state: it is
// how a replica cuts a durable snapshot. It holds the store's lock for the
// whole stream, so the owning replica and every observer wait for it: it
// suits a writer that does not block, such as a file written into the
// page cache, and a slow one stalls them all.
package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"ezbft/internal/types"
)

// undoRecord is one final write as seen from before it: the key's previous
// value and whether the key existed at all.
type undoRecord struct {
	key     string
	prev    []byte
	existed bool
}

// Store is a speculative key-value store, safe for one writer (the owning
// replica process) with any number of concurrent observers. Final values
// are never modified in place, so an undo record keeps the previous value
// itself, not a copy.
type Store struct {
	mu    sync.RWMutex
	final map[string][]byte
	spec  map[string][]byte // overlay; reads fall through to final

	indexed  bool             // keys is kept: queue keys new to final in added
	keys     []string         // sorted final keys, once indexed
	added    []string         // keys new to final since the index was last merged
	undo     []undoRecord     // final writes since the oldest retained state
	retained []*retainedState // live retained states, oldest first
	hash     hash.Hash
	scratch  []byte
	then     map[string]undoRecord // a retained state's keys as they were, rebuilt per use

	finalExecs atomic.Uint64
	specExecs  atomic.Uint64
	rollbacks  atomic.Uint64
}

var (
	_ types.SpeculativeApplication = (*Store)(nil)
	_ types.Retainer               = (*Store)(nil)
	_ types.StateWriter            = (*Store)(nil)
	_ types.StateWriter            = (*retainedState)(nil)
)

// errReleased is what streaming a retained state that is no longer held
// returns.
var errReleased = errors.New("kvstore: the retained state is no longer held")

// writeChunk is how many bytes of entries a streamed state gathers before
// it writes them out.
const writeChunk = 4 << 10

// New returns an empty store.
func New() *Store {
	return &Store{
		final: make(map[string][]byte),
		spec:  make(map[string][]byte),
	}
}

// Apply implements types.Application: execute on the final state. It is
// what non-speculative protocols (PBFT, Zyzzyva, FaB) call.
func (s *Store) Apply(cmd types.Command) types.Result {
	return s.PromoteFinal(cmd)
}

// SpecExecute implements types.SpeculativeApplication: apply a command on
// top of the latest state (speculative overlay over final), per paper
// §IV-B ("speculative execution can happen in either the speculative state
// or in the final version of the state, whichever is the latest").
func (s *Store) SpecExecute(cmd types.Command) types.Result {
	s.specExecs.Add(1)
	if cmd.Op == types.OpNoop {
		return types.Result{OK: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return apply(cmd, s.specRead, s.specWrite)
}

// Rollback implements types.SpeculativeApplication: discard the overlay.
// The overlay map is emptied, not replaced: a replica rolls back after
// every execution pass and speculates again at once, so a fresh map would
// only be regrown by the next write.
func (s *Store) Rollback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.spec)
	s.rollbacks.Add(1)
}

// PromoteFinal implements types.SpeculativeApplication: execute on the
// previous final version of the state only.
func (s *Store) PromoteFinal(cmd types.Command) types.Result {
	s.finalExecs.Add(1)
	if cmd.Op == types.OpNoop {
		return types.Result{OK: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return apply(cmd, s.finalRead, s.finalWrite)
}

// Stats returns execution counters (final, speculative, rollbacks).
func (s *Store) Stats() (finalExecs, specExecs, rollbacks uint64) {
	return s.finalExecs.Load(), s.specExecs.Load(), s.rollbacks.Load()
}

// Get reads a key from the final state (test/inspection helper).
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.final[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len returns the number of keys in the final state.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.final)
}

// Digest returns a deterministic digest of the final state, used for
// checkpoint certificates and state cross-checks between replicas: SHA-256
// over every (key, value) entry in key order, each as in Snapshot. It takes
// the write lock because it maintains the key index and its own scratch.
func (s *Store) Digest() types.Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncIndexLocked()
	if s.hash == nil {
		s.hash = sha256.New()
	}
	s.hash.Reset()
	for _, k := range s.keys {
		s.scratch = appendEntry(s.scratch[:0], k, s.final[k])
		s.hash.Write(s.scratch)
	}
	s.scratch = s.hash.Sum(s.scratch[:0])
	var d types.Digest
	copy(d[:], s.scratch)
	return d
}

// Snapshot implements types.Snapshotter: a deterministic serialization of
// the final state (sorted keys, length-prefixed), used by checkpoint-based
// state transfer. The speculative overlay is deliberately excluded — it is
// replica-local and discarded on Restore anyway.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncIndexLocked()
	return s.serializeLocked(nil)
}

// WriteState implements types.StateWriter: it streams what Snapshot
// returns to w, holding the lock throughout.
func (s *Store) WriteState(w io.Writer, size func(n int) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncIndexLocked()
	return s.writeLocked(w, nil, size)
}

// Retain implements types.Retainer: it pins the current final state in
// O(1) by marking where the undo records for it begin.
func (s *Store) Retain() types.Retained {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := &retainedState{s: s, live: true, start: len(s.undo)}
	s.retained = append(s.retained, rs)
	return rs
}

// retainedState is one state pinned by Retain: the final state as it is
// now, minus the undo records from start onwards. Its fields other than s
// are guarded by the store's mutex.
type retainedState struct {
	s     *Store
	live  bool
	start int
}

// Snapshot implements types.Retained.
func (r *retainedState) Snapshot() ([]byte, bool) {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.live {
		return nil, false
	}
	return s.serializeLocked(r.thenLocked()), true
}

// WriteState implements types.StateWriter: it streams what Snapshot
// returns to w, holding the store's lock throughout.
func (r *retainedState) WriteState(w io.Writer, size func(n int) error) error {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.live {
		return errReleased
	}
	return s.writeLocked(w, r.thenLocked(), size)
}

// thenLocked syncs the key index and returns the first undo record of
// each key written since the retention — its state then — in the store's
// reused map.
func (r *retainedState) thenLocked() map[string]undoRecord {
	s := r.s
	s.syncIndexLocked()
	if s.then == nil {
		s.then = make(map[string]undoRecord)
	}
	clear(s.then)
	for _, u := range s.undo[r.start:] {
		if _, seen := s.then[u.key]; !seen {
			s.then[u.key] = u
		}
	}
	return s.then
}

// Release implements types.Retained: the undo records no remaining
// retained state needs are discarded, their storage kept for reuse.
func (r *retainedState) Release() {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.live {
		return
	}
	r.live = false
	s.retained = slices.DeleteFunc(s.retained, func(o *retainedState) bool { return o == r })
	cut := len(s.undo)
	for _, o := range s.retained {
		cut = min(cut, o.start)
	}
	n := copy(s.undo, s.undo[cut:])
	clear(s.undo[n:])
	s.undo = s.undo[:n]
	for _, o := range s.retained {
		o.start -= cut
	}
}

// dropRetainedLocked forgets every retained state (Restore replaced the
// state they were reconstructed from).
func (s *Store) dropRetainedLocked() {
	for _, r := range s.retained {
		r.live = false
	}
	clear(s.retained)
	s.retained = s.retained[:0]
	clear(s.undo)
	s.undo = s.undo[:0]
}

// syncIndexLocked brings the sorted key index up to date: built from
// scratch on first use, afterwards by merging the keys queued since.
func (s *Store) syncIndexLocked() {
	if !s.indexed {
		s.indexed = true
		s.rebuildIndexLocked()
		return
	}
	if len(s.added) == 0 {
		return
	}
	slices.Sort(s.added)
	// Merge from the back, so the index grows in place.
	i, j := len(s.keys)-1, len(s.added)-1
	s.keys = slices.Grow(s.keys, len(s.added))[:len(s.keys)+len(s.added)]
	for k := len(s.keys) - 1; j >= 0; k-- {
		if i >= 0 && s.keys[i] > s.added[j] {
			s.keys[k] = s.keys[i]
			i--
		} else {
			s.keys[k] = s.added[j]
			j--
		}
	}
	clear(s.added)
	s.added = s.added[:0]
}

// rebuildIndexLocked rebuilds the index from the final map.
func (s *Store) rebuildIndexLocked() {
	s.keys = s.keys[:0]
	for k := range s.final {
		s.keys = append(s.keys, k)
	}
	slices.Sort(s.keys)
	clear(s.added)
	s.added = s.added[:0]
}

// serializeLocked returns the final state in Snapshot's format, as
// writeLocked writes it.
func (s *Store) serializeLocked(then map[string]undoRecord) []byte {
	var out bytes.Buffer
	_ = s.writeLocked(&out, then, func(n int) error { out.Grow(n); return nil }) // a bytes.Buffer does not fail
	return out.Bytes()
}

// writeLocked writes the final state in Snapshot's format to w, as it was
// before the writes recorded in then (nil: as it is now), after telling
// size its length. The index must be in sync; no key is ever deleted
// except by Restore, so the keys of any retained state are among the
// current ones. The entries go out in chunks through the store's scratch.
func (s *Store) writeLocked(w io.Writer, then map[string]undoRecord, size func(n int) error) error {
	count, n := 0, 8
	for _, k := range s.keys {
		if v, ok := s.valueLocked(k, then); ok {
			count++
			n += 16 + len(k) + len(v)
		}
	}
	if err := size(n); err != nil {
		return err
	}
	s.scratch = binary.BigEndian.AppendUint64(s.scratch[:0], uint64(count))
	for _, k := range s.keys {
		v, ok := s.valueLocked(k, then)
		if !ok {
			continue
		}
		s.scratch = appendEntry(s.scratch, k, v)
		if len(s.scratch) >= writeChunk {
			if _, err := w.Write(s.scratch); err != nil {
				return err
			}
			s.scratch = s.scratch[:0]
		}
	}
	_, err := w.Write(s.scratch)
	return err
}

func (s *Store) valueLocked(k string, then map[string]undoRecord) ([]byte, bool) {
	if u, ok := then[k]; ok {
		return u.prev, u.existed
	}
	return s.final[k], true
}

// appendEntry appends one length-prefixed (key, value) entry.
func appendEntry(b []byte, k string, v []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(k)))
	b = append(b, k...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(v)))
	return append(b, v...)
}

// Restore implements types.Snapshotter: replace the final state with the
// snapshot's, clear the speculative overlay and drop every retained state.
func (s *Store) Restore(snap []byte) error {
	if len(snap) < 8 {
		return errors.New("kvstore: short snapshot")
	}
	n := binary.BigEndian.Uint64(snap)
	// Every entry needs at least two 8-byte length prefixes, so the claimed
	// count is bounded by the material actually present — a forged header
	// cannot force a huge preallocation.
	if n > uint64(len(snap))/16 {
		return errors.New("kvstore: snapshot entry count exceeds payload")
	}
	off := uint64(8)
	final := make(map[string][]byte, n)
	readBlock := func() ([]byte, error) {
		if uint64(len(snap)) < off+8 {
			return nil, errors.New("kvstore: truncated snapshot")
		}
		l := binary.BigEndian.Uint64(snap[off:])
		off += 8
		if uint64(len(snap)) < off+l {
			return nil, errors.New("kvstore: truncated snapshot")
		}
		b := snap[off : off+l]
		off += l
		return b, nil
	}
	for i := uint64(0); i < n; i++ {
		k, err := readBlock()
		if err != nil {
			return err
		}
		v, err := readBlock()
		if err != nil {
			return err
		}
		final[string(k)] = append([]byte(nil), v...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropRetainedLocked()
	s.final = final
	s.spec = make(map[string][]byte)
	if s.indexed {
		s.rebuildIndexLocked()
	}
	return nil
}

// --- internals ---

func (s *Store) finalRead(key string) ([]byte, bool) {
	v, ok := s.final[key]
	return v, ok
}

func (s *Store) finalWrite(key string, v []byte) {
	if retaining := len(s.retained) > 0; s.indexed || retaining {
		prev, existed := s.final[key]
		if retaining {
			s.undo = append(s.undo, undoRecord{key: key, prev: prev, existed: existed})
		}
		if s.indexed && !existed {
			s.added = append(s.added, key)
		}
	}
	s.final[key] = v
}

func (s *Store) specRead(key string) ([]byte, bool) {
	if v, ok := s.spec[key]; ok {
		return v, ok
	}
	v, ok := s.final[key]
	return v, ok
}

func (s *Store) specWrite(key string, v []byte) { s.spec[key] = v }

// apply executes one command against the given read/write accessors.
// Results are deterministic functions of (state, command); INCR returns no
// value so that commuting increments produce identical replies regardless
// of order (see types.Command.Interferes).
func apply(cmd types.Command, read func(string) ([]byte, bool), write func(string, []byte)) types.Result {
	switch cmd.Op {
	case types.OpGet:
		v, ok := read(cmd.Key)
		if !ok {
			return types.Result{OK: false}
		}
		return types.Result{OK: true, Value: append([]byte(nil), v...)}
	case types.OpPut:
		write(cmd.Key, append([]byte(nil), cmd.Value...))
		return types.Result{OK: true}
	case types.OpIncr:
		var cur uint64
		if v, ok := read(cmd.Key); ok && len(v) == 8 {
			cur = binary.BigEndian.Uint64(v)
		}
		next := make([]byte, 8)
		binary.BigEndian.PutUint64(next, cur+1)
		write(cmd.Key, next)
		return types.Result{OK: true}
	case types.OpNoop:
		return types.Result{OK: true}
	default:
		return types.Result{OK: false}
	}
}

// Counter decodes the 8-byte big-endian counter representation used by
// INCR; helper for examples and tests.
func Counter(v []byte) uint64 {
	if len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}
