package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"ezbft/internal/types"
)

// TombstoneCap bounds the per-shard memory of finished transactions: the
// newest TombstoneCap applied and TombstoneCap aborted transaction ids are
// remembered (FIFO eviction, deterministic because every replica evicts at
// the same command in its shard's total order). A transaction phase retried
// later than TombstoneCap completed transactions can no longer be
// deduplicated at the application layer; coordinators retry on the scale of
// seconds, so the window is far beyond any real retry horizon.
const TombstoneCap = 4096

// App wraps a shard's application with the cross-shard transaction layer: a
// replicated lock table, staged writes, and tombstones for finished
// transactions. Plain commands pass straight through to the inner
// application — with no transaction traffic the wrapper's state stays empty
// and Digest returns the inner digest unchanged, keeping every single-shard
// figure byte-identical to the unsharded deployment.
//
// Transaction phases (OpTxnLock/Apply/Abort) are ordered through the shard's
// consensus group like any other command and interpreted here, so every
// replica of the shard transitions the same lock table in the same order —
// the wrapper adds no coordination of its own. All phase handlers are
// idempotent (re-lock by the holder grants, re-apply and re-abort answer
// from the tombstones), which is what lets the coordinator retry phases with
// fresh client timestamps without breaking exactly-once.
type App struct {
	inner     types.Application
	innerSpec types.SpeculativeApplication // nil when inner does not speculate
	innerSnap types.Snapshotter            // nil when inner has no state transfer
	innerCkpt types.Checkpointer           // nil when inner has no checkpoint hook

	// mu guards the transaction tables against the goroutines that observe
	// the application (Digest, Snapshot, LockedKeys, PendingTxns) while the
	// replica executes on its own. Plain commands never take it.
	mu    sync.Mutex
	final tables
	spec  *tables // speculative overlay; nil while spec == final
}

// Wrap builds the transaction-aware wrapper around a shard's application.
// The wrapper mirrors whichever optional contracts the inner application
// implements: speculation, snapshots, and checkpoints all delegate inward,
// with transaction state layered on top.
func Wrap(inner types.Application) *App {
	a := &App{inner: inner, final: newTables()}
	a.innerSpec, _ = inner.(types.SpeculativeApplication)
	a.innerSnap, _ = inner.(types.Snapshotter)
	a.innerCkpt, _ = inner.(types.Checkpointer)
	return a
}

var (
	_ types.SpeculativeApplication = (*App)(nil)
	_ types.Snapshotter            = (*App)(nil)
	_ types.Checkpointer           = (*App)(nil)
)

// Inner returns the wrapped application, for inspection in tests.
func (a *App) Inner() types.Application { return a.inner }

// Apply implements types.Application.
func (a *App) Apply(cmd types.Command) types.Result {
	if !cmd.Op.IsTxn() {
		return a.inner.Apply(cmd)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.final.step(cmd, a.inner.Apply)
}

// SpecExecute implements types.SpeculativeApplication: transaction phases
// run against a copy-on-write overlay of the tables so Rollback restores the
// last final state exactly.
func (a *App) SpecExecute(cmd types.Command) types.Result {
	if !cmd.Op.IsTxn() {
		if a.innerSpec != nil {
			return a.innerSpec.SpecExecute(cmd)
		}
		return a.inner.Apply(cmd)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spec == nil {
		a.spec = a.final.clone()
	}
	exec := a.inner.Apply
	if a.innerSpec != nil {
		exec = a.innerSpec.SpecExecute
	}
	return a.spec.step(cmd, exec)
}

// Rollback implements types.SpeculativeApplication.
func (a *App) Rollback() {
	a.mu.Lock()
	a.spec = nil
	a.mu.Unlock()
	if a.innerSpec != nil {
		a.innerSpec.Rollback()
	}
}

// PromoteFinal implements types.SpeculativeApplication. A transaction phase
// promoted to the final state invalidates the speculative table overlay
// wholesale (it was cloned from an older final state); transaction traffic
// is rare enough that re-speculation costs nothing measurable.
func (a *App) PromoteFinal(cmd types.Command) types.Result {
	if !cmd.Op.IsTxn() {
		if a.innerSpec != nil {
			return a.innerSpec.PromoteFinal(cmd)
		}
		return a.inner.Apply(cmd)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spec = nil
	exec := a.inner.Apply
	if a.innerSpec != nil {
		exec = a.innerSpec.PromoteFinal
	}
	return a.final.step(cmd, exec)
}

// Digest implements types.Application: the inner digest, unchanged while the
// transaction tables are empty (the single-shard byte-identity guarantee),
// mixed with the canonical table serialization otherwise.
func (a *App) Digest() types.Digest {
	a.mu.Lock()
	defer a.mu.Unlock()
	inner := a.inner.Digest()
	if a.final.empty() {
		return inner
	}
	h := sha256.New()
	h.Write(inner[:])
	h.Write(a.final.encode())
	var d types.Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Snapshot implements types.Snapshotter: the transaction tables followed by
// the inner snapshot.
func (a *App) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	buf := []byte{payloadVersion}
	t := a.final.encode()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t)))
	buf = append(buf, t...)
	if a.innerSnap != nil {
		buf = append(buf, 1)
		buf = append(buf, a.innerSnap.Snapshot()...)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// Restore implements types.Snapshotter.
func (a *App) Restore(snap []byte) error {
	if len(snap) < 5 || snap[0] != payloadVersion {
		return fmt.Errorf("shard: bad snapshot header")
	}
	n := int(binary.BigEndian.Uint32(snap[1:]))
	rest := snap[5:]
	if len(rest) < n+1 {
		return fmt.Errorf("shard: truncated snapshot")
	}
	t, err := decodeTables(rest[:n])
	if err != nil {
		return err
	}
	hasInner := rest[n] == 1
	if hasInner {
		if a.innerSnap == nil {
			return fmt.Errorf("shard: snapshot carries inner state but application has no Snapshotter")
		}
		if err := a.innerSnap.Restore(rest[n+1:]); err != nil {
			return err
		}
	}
	a.mu.Lock()
	a.final = *t
	a.spec = nil
	a.mu.Unlock()
	return nil
}

// Checkpoint implements types.Checkpointer.
func (a *App) Checkpoint(seq uint64, digest types.Digest) {
	if a.innerCkpt != nil {
		a.innerCkpt.Checkpoint(seq, digest)
	}
}

// LockedKeys returns the keys currently locked by pending transactions, in
// sorted order — inspection for tests and invariants.
func (a *App) LockedKeys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.final.locks))
	for k := range a.final.locks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PendingTxns returns the ids of transactions holding locks, sorted.
func (a *App) PendingTxns() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.final.txns))
	for id := range a.final.txns {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// tables is the replicated transaction state of one shard.
type tables struct {
	locks   map[string]string    // key -> holding transaction id
	txns    map[string]*txnEntry // pending transactions
	applied *tombstones          // committed transaction ids
	aborted *tombstones          // aborted transaction ids
}

// txnEntry is one pending transaction's staged state. Entries are immutable
// after staging, so table clones share them.
type txnEntry struct {
	keys []string // distinct locked keys, sorted
	ops  []Op     // staged sub-operations, client order
}

func newTables() tables {
	return tables{
		locks:   make(map[string]string),
		txns:    make(map[string]*txnEntry),
		applied: newTombstones(),
		aborted: newTombstones(),
	}
}

func (t *tables) empty() bool {
	return len(t.locks) == 0 && len(t.txns) == 0 && t.applied.len() == 0 && t.aborted.len() == 0
}

func (t *tables) clone() *tables {
	c := &tables{
		locks:   make(map[string]string, len(t.locks)),
		txns:    make(map[string]*txnEntry, len(t.txns)),
		applied: t.applied.clone(),
		aborted: t.aborted.clone(),
	}
	for k, v := range t.locks {
		c.locks[k] = v
	}
	for k, v := range t.txns {
		c.txns[k] = v
	}
	return c
}

// step interprets one transaction phase against the tables, executing staged
// writes through exec (Apply, SpecExecute, or PromoteFinal on the inner
// application, chosen by the caller's execution mode).
func (t *tables) step(cmd types.Command, exec func(types.Command) types.Result) types.Result {
	switch cmd.Op {
	case types.OpTxnLock:
		p, err := decodeLockPayload(cmd.Value)
		if err != nil {
			return statusResult(false, StatusUnknown)
		}
		return t.lock(cmd, p, exec)
	case types.OpTxnApply:
		id, err := decodeIDPayload(cmd.Value)
		if err != nil {
			return statusResult(false, StatusUnknown)
		}
		return t.apply(cmd, id, exec)
	case types.OpTxnAbort:
		id, err := decodeIDPayload(cmd.Value)
		if err != nil {
			return statusResult(false, StatusUnknown)
		}
		return t.abort(id)
	default:
		return statusResult(false, StatusUnknown)
	}
}

func (t *tables) lock(cmd types.Command, p lockPayload, exec func(types.Command) types.Result) types.Result {
	if t.applied.has(p.ID) {
		return statusResult(true, StatusApplied) // retried lock of a committed transaction
	}
	if t.aborted.has(p.ID) {
		return statusResult(false, StatusAborted) // tombstone refuses the late lock
	}
	entry, held := t.txns[p.ID]
	if !held {
		keys := distinctKeys(p.Ops)
		for _, k := range keys {
			if holder, locked := t.locks[k]; locked && holder != p.ID {
				return statusResult(false, StatusConflict)
			}
		}
		entry = &txnEntry{keys: keys, ops: p.Ops}
		t.txns[p.ID] = entry
		for _, k := range keys {
			t.locks[k] = p.ID
		}
	}
	if p.OnePhase {
		t.commit(cmd, p.ID, entry, exec)
		return statusResult(true, StatusApplied)
	}
	return statusResult(true, StatusGranted)
}

func (t *tables) apply(cmd types.Command, id string, exec func(types.Command) types.Result) types.Result {
	if t.applied.has(id) {
		return statusResult(true, StatusApplied) // idempotent re-apply
	}
	if t.aborted.has(id) {
		return statusResult(false, StatusAborted)
	}
	entry, held := t.txns[id]
	if !held {
		return statusResult(false, StatusUnknown)
	}
	t.commit(cmd, id, entry, exec)
	return statusResult(true, StatusApplied)
}

// commit releases a pending transaction into the inner application: staged
// sub-operations execute in client order, then the locks drop and the id is
// tombstoned as applied.
func (t *tables) commit(cmd types.Command, id string, entry *txnEntry, exec func(types.Command) types.Result) {
	for _, op := range entry.ops {
		exec(types.Command{
			Client:    cmd.Client,
			Timestamp: cmd.Timestamp,
			Op:        op.Op,
			Key:       op.Key,
			Value:     op.Value,
		})
	}
	t.release(id, entry)
	t.applied.add(id)
}

func (t *tables) abort(id string) types.Result {
	if t.applied.has(id) {
		return statusResult(false, StatusApplied) // cannot abort a committed transaction
	}
	if !t.aborted.has(id) {
		if entry, held := t.txns[id]; held {
			t.release(id, entry)
		}
		// Tombstone even when the lock never arrived: a late lock delivery
		// ordered after this abort is refused instead of stranding locks.
		t.aborted.add(id)
	}
	return statusResult(true, StatusAborted)
}

func (t *tables) release(id string, entry *txnEntry) {
	for _, k := range entry.keys {
		if t.locks[k] == id {
			delete(t.locks, k)
		}
	}
	delete(t.txns, id)
}

// encode serializes the tables canonically (sorted maps, FIFO tombstones):
// the same bytes on every replica with the same state, used by both Digest
// and Snapshot.
func (t *tables) encode() []byte {
	var buf []byte
	lockKeys := make([]string, 0, len(t.locks))
	for k := range t.locks {
		lockKeys = append(lockKeys, k)
	}
	sort.Strings(lockKeys)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(lockKeys)))
	for _, k := range lockKeys {
		buf = appendString(buf, k)
		buf = appendString(buf, t.locks[k])
	}
	txnIDs := make([]string, 0, len(t.txns))
	for id := range t.txns {
		txnIDs = append(txnIDs, id)
	}
	sort.Strings(txnIDs)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(txnIDs)))
	for _, id := range txnIDs {
		buf = appendString(buf, id)
		entry := t.txns[id]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(entry.ops)))
		for _, op := range entry.ops {
			buf = append(buf, byte(op.Op))
			buf = appendString(buf, op.Key)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	buf = t.applied.encode(buf)
	buf = t.aborted.encode(buf)
	return buf
}

func decodeTables(b []byte) (*tables, error) {
	t := newTables()
	var err error
	if len(b) < 4 {
		return nil, errTruncated
	}
	nLocks := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < nLocks; i++ {
		var k, id string
		if k, b, err = takeString(b); err != nil {
			return nil, err
		}
		if id, b, err = takeString(b); err != nil {
			return nil, err
		}
		t.locks[k] = id
	}
	if len(b) < 4 {
		return nil, errTruncated
	}
	nTxns := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < nTxns; i++ {
		var id string
		if id, b, err = takeString(b); err != nil {
			return nil, err
		}
		if len(b) < 2 {
			return nil, errTruncated
		}
		nOps := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		ops := make([]Op, 0, nOps)
		for j := 0; j < nOps; j++ {
			if len(b) < 1 {
				return nil, errTruncated
			}
			op := Op{Op: types.Op(b[0])}
			b = b[1:]
			if op.Key, b, err = takeString(b); err != nil {
				return nil, err
			}
			if len(b) < 4 {
				return nil, errTruncated
			}
			vn := int(binary.BigEndian.Uint32(b))
			b = b[4:]
			if len(b) < vn {
				return nil, errTruncated
			}
			if vn > 0 {
				op.Value = append([]byte(nil), b[:vn]...)
			}
			b = b[vn:]
			ops = append(ops, op)
		}
		t.txns[id] = &txnEntry{keys: distinctKeys(ops), ops: ops}
	}
	if b, err = t.applied.decode(b); err != nil {
		return nil, err
	}
	if _, err = t.aborted.decode(b); err != nil {
		return nil, err
	}
	return &t, nil
}

func distinctKeys(ops []Op) []string {
	seen := make(map[string]struct{}, len(ops))
	keys := make([]string, 0, len(ops))
	for _, op := range ops {
		if _, ok := seen[op.Key]; !ok {
			seen[op.Key] = struct{}{}
			keys = append(keys, op.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// tombstones is a bounded FIFO set of transaction ids.
type tombstones struct {
	set  map[string]struct{}
	fifo []string
}

func newTombstones() *tombstones { return &tombstones{set: make(map[string]struct{})} }

func (ts *tombstones) len() int { return len(ts.fifo) }

func (ts *tombstones) has(id string) bool {
	_, ok := ts.set[id]
	return ok
}

func (ts *tombstones) add(id string) {
	if ts.has(id) {
		return
	}
	ts.set[id] = struct{}{}
	ts.fifo = append(ts.fifo, id)
	for len(ts.fifo) > TombstoneCap {
		delete(ts.set, ts.fifo[0])
		ts.fifo = ts.fifo[1:]
	}
}

func (ts *tombstones) clone() *tombstones {
	c := &tombstones{set: make(map[string]struct{}, len(ts.set))}
	for id := range ts.set {
		c.set[id] = struct{}{}
	}
	c.fifo = append(make([]string, 0, len(ts.fifo)), ts.fifo...)
	return c
}

func (ts *tombstones) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ts.fifo)))
	for _, id := range ts.fifo {
		buf = appendString(buf, id)
	}
	return buf
}

func (ts *tombstones) decode(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, errTruncated
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	var err error
	for i := 0; i < n; i++ {
		var id string
		if id, b, err = takeString(b); err != nil {
			return nil, err
		}
		ts.add(id)
	}
	return b, nil
}
