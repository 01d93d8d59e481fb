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
// The store also implements types.ConcurrentApplication for the
// deterministic parallel executor: each command's footprint is exactly its
// key, and state is partitioned into lock stripes by key hash so
// PromoteFinal calls on different keys proceed concurrently instead of
// serializing on one store-wide mutex. Whole-store operations (Digest,
// Snapshot, Restore, Rollback, Len) take every stripe in index order, so
// they remain atomic with respect to in-flight per-key operations and their
// output stays byte-identical to the single-mutex implementation.
package kvstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"ezbft/internal/types"
)

// numStripes is the lock-stripe count; a power of two so the hash reduces
// with a mask. 32 stripes keep the collision probability low for the worker
// counts the executor runs (≤ GOMAXPROCS in practice).
const numStripes = 32

// stripe is one lock-partition of the store: final state plus the
// speculative overlay for the keys that hash here.
type stripe struct {
	mu    sync.RWMutex
	final map[string][]byte
	spec  map[string][]byte // overlay; reads fall through to final
}

// Store is a speculative key-value store, safe for one writer (the owning
// replica process) with any number of concurrent observers — and, under the
// types.ConcurrentApplication contract, safe for concurrent PromoteFinal
// calls on non-interfering commands.
type Store struct {
	stripes [numStripes]stripe

	finalExecs atomic.Uint64
	specExecs  atomic.Uint64
	rollbacks  atomic.Uint64
}

var (
	_ types.SpeculativeApplication = (*Store)(nil)
	_ types.ConcurrentApplication  = (*Store)(nil)
	_ types.Snapshotter            = (*Store)(nil)
)

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.stripes {
		s.stripes[i].final = make(map[string][]byte)
		s.stripes[i].spec = make(map[string][]byte)
	}
	return s
}

// stripeIndex hashes a key onto its lock stripe (FNV-1a, masked).
func stripeIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (numStripes - 1))
}

func (s *Store) stripeOf(key string) *stripe { return &s.stripes[stripeIndex(key)] }

// lockAll takes every stripe in index order (deadlock-free against the
// per-key paths, which hold at most one stripe).
func (s *Store) lockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

func (s *Store) rlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.RUnlock()
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
	st := s.stripeOf(cmd.Key)
	st.mu.Lock()
	defer st.mu.Unlock()
	return apply(cmd, st.specRead, st.specWrite)
}

// Rollback implements types.SpeculativeApplication: discard the overlay.
// The overlay maps are emptied, not replaced: a replica rolls back after
// every execution pass and speculates again at once, so a fresh map would
// only be regrown by the next write.
func (s *Store) Rollback() {
	s.lockAll()
	defer s.unlockAll()
	for i := range s.stripes {
		clear(s.stripes[i].spec)
	}
	s.rollbacks.Add(1)
}

// PromoteFinal implements types.SpeculativeApplication: execute on the
// previous final version of the state only. Under the
// types.ConcurrentApplication contract it may be called from multiple
// goroutines at once for non-interfering commands; each call holds only its
// key's stripe lock.
func (s *Store) PromoteFinal(cmd types.Command) types.Result {
	s.finalExecs.Add(1)
	if cmd.Op == types.OpNoop {
		return types.Result{OK: true}
	}
	st := s.stripeOf(cmd.Key)
	st.mu.Lock()
	defer st.mu.Unlock()
	return apply(cmd, st.finalRead, st.finalWrite)
}

// Footprint implements types.ConcurrentApplication: a command touches
// exactly its key (no-ops touch nothing; they never reach the application
// during final execution anyway).
func (s *Store) Footprint(cmd types.Command) []types.Key {
	if cmd.Op == types.OpNoop {
		return nil
	}
	return []types.Key{types.Key(cmd.Key)}
}

// Stats returns execution counters (final, speculative, rollbacks).
func (s *Store) Stats() (finalExecs, specExecs, rollbacks uint64) {
	return s.finalExecs.Load(), s.specExecs.Load(), s.rollbacks.Load()
}

// Get reads a key from the final state (test/inspection helper).
func (s *Store) Get(key string) ([]byte, bool) {
	st := s.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.final[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len returns the number of keys in the final state.
func (s *Store) Len() int {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.stripes {
		n += len(s.stripes[i].final)
	}
	return n
}

// Digest returns a deterministic digest of the final state, used for
// checkpoint certificates and state cross-checks between replicas. The
// output is a function of the key-value contents only — independent of the
// stripe layout, and byte-identical to the pre-striping implementation.
func (s *Store) Digest() types.Digest {
	s.rlockAll()
	defer s.runlockAll()
	keys := make([]string, 0, s.lenLocked())
	for i := range s.stripes {
		for k := range s.stripes[i].final {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	var lenBuf [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(k)))
		h.Write(lenBuf[:])
		h.Write([]byte(k))
		v := s.stripes[stripeIndex(k)].final[k]
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(v)))
		h.Write(lenBuf[:])
		h.Write(v)
	}
	var d types.Digest
	copy(d[:], h.Sum(nil))
	return d
}

func (s *Store) lenLocked() int {
	n := 0
	for i := range s.stripes {
		n += len(s.stripes[i].final)
	}
	return n
}

// Snapshot implements types.Snapshotter: a deterministic serialization of
// the final state (sorted keys, length-prefixed), used by checkpoint-based
// state transfer. The speculative overlay is deliberately excluded — it is
// replica-local and discarded on Restore anyway.
func (s *Store) Snapshot() []byte {
	s.rlockAll()
	defer s.runlockAll()
	keys := make([]string, 0, s.lenLocked())
	size := 8
	for i := range s.stripes {
		for k, v := range s.stripes[i].final {
			keys = append(keys, k)
			size += 16 + len(k) + len(v)
		}
	}
	sort.Strings(keys)
	out := make([]byte, 0, size)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(keys)))
	out = append(out, lenBuf[:]...)
	for _, k := range keys {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(k)))
		out = append(out, lenBuf[:]...)
		out = append(out, k...)
		v := s.stripes[stripeIndex(k)].final[k]
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(v)))
		out = append(out, lenBuf[:]...)
		out = append(out, v...)
	}
	return out
}

// Restore implements types.Snapshotter: replace the final state with the
// snapshot's and clear the speculative overlay.
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
	s.lockAll()
	defer s.unlockAll()
	for i := range s.stripes {
		s.stripes[i].final = make(map[string][]byte)
		s.stripes[i].spec = make(map[string][]byte)
	}
	for k, v := range final {
		s.stripes[stripeIndex(k)].final[k] = v
	}
	return nil
}

// --- internals ---

func (st *stripe) finalRead(key string) ([]byte, bool) {
	v, ok := st.final[key]
	return v, ok
}

func (st *stripe) finalWrite(key string, v []byte) { st.final[key] = v }

func (st *stripe) specRead(key string) ([]byte, bool) {
	if v, ok := st.spec[key]; ok {
		return v, ok
	}
	v, ok := st.final[key]
	return v, ok
}

func (st *stripe) specWrite(key string, v []byte) { st.spec[key] = v }

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
