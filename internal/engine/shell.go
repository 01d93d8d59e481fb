package engine

import (
	"bytes"
	"io"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// Shell is the runtime every replica embeds around its protocol — ezBFT's
// core.Replica directly, PBFT, Zyzzyva and FaB through their Sequencer: the
// timer table, the outbound gate, and the write-ahead log. A Shell belongs
// to one replica and is touched only from its loop.
//
// # Timers
//
// AfterTimer arms a one-shot timer bound to an action and returns its ID
// (1, 2, ... in arming order); OnTimer runs the action of an expired timer.
// DisarmTimer cancels one; ForgetTimer only drops its action, so the timer
// still fires, into nothing.
//
// # Outbound gate
//
// Send and Broadcast send nothing while the replica is muted or recovering
// (recovery re-runs handlers whose messages an earlier incarnation already
// sent). Otherwise they sync the log first (below), then offer each message
// to the replica's Behavior per destination, if it has one, and without
// one Broadcast encodes once for every peer (proc.Broadcast). Inbound asks
// the Behavior about a delivered message.
//
// # Write-ahead log
//
// With a store attached, the replica appends one record before it acts on
// each ordering-critical event (Append; the record kinds and their bodies
// are ezBFT's own, internal/core/durable.go, and the Sequencer's for the
// sequenced protocols, wal.go). Appends buffer; the group-commit point is the
// first send after them, with a sweep at the end of every delivery (the
// protocol's Receive calls Sync; OnTimer does it itself). A handler's whole
// record burst therefore costs one sync, and no message derived from a
// record reaches the wire — which on the live substrates is immediate —
// before the record is stable. A crash loses at most the records of the
// handler that was running, whose messages had not left either; the
// replica rejoins that far behind and fetches the difference by state
// transfer.
//
// A newly stable checkpoint cuts the store snapshot (SaveSnapshot): it
// subsumes every record so far, so the store drops them and the durable
// footprint stays one snapshot plus the log since. Every protocol streams
// its snapshot into the store — the application state through its
// types.StateWriter, or its Snapshot bytes where it has none, and the rest
// through a small codec buffer — so a cut allocates nothing in proportion
// to the state, though it still takes the loop time proportional to it.
// A cut that fails, even halfway, leaves the previous snapshot and the
// records after it in place, and latches WALFailed like any store error.
//
// Recover rebuilds a replica whose store holds state, before any delivery:
// it installs the snapshot, replays the records in LSN order and lets the
// protocol re-derive what they imply (execution), with the gate closed and
// appends and cuts off throughout, so nothing is sent twice and nothing is
// logged twice. Replay must be idempotent: a crash during or after recovery
// replays again.
//
// The first store error turns logging off for good (WALFailed): the
// replica goes on non-durably rather than wedge consensus on a full disk.
// A read error during replay latches the same way, so nothing is appended
// on top of a prefix that was never applied.
type Shell struct {
	self     types.ReplicaID
	peers    []types.NodeID // every other replica, for broadcasts
	mute     bool
	behavior Behavior

	timerSeq uint64
	timerAct map[proc.TimerID]func(ctx proc.Context)

	store      store.Store // nil: memoryless across restarts
	recovering bool
	walDirty   bool  // records appended since the last sync
	walErr     error // the first store error; logging is off
	stats      WALStats
}

// WALStats are the write-ahead-log counters every replica reports.
type WALStats struct {
	WALRecords uint64 // records appended to the write-ahead log
	Recoveries uint64 // restarts that rebuilt state from the store
	WALFailed  bool   // a store error turned logging off
}

// NewShell builds the shell of replica self in a cluster of n. A muted
// replica sends nothing; b, when non-nil, intercepts what it sends and
// receives; st, when non-nil, is its write-ahead log.
func NewShell(self types.ReplicaID, n int, mute bool, b Behavior, st store.Store) Shell {
	s := Shell{self: self, mute: mute, behavior: b, store: st, timerAct: make(map[proc.TimerID]func(ctx proc.Context))}
	for i := 0; i < n; i++ {
		if types.ReplicaID(i) != self {
			s.peers = append(s.peers, types.ReplicaNode(types.ReplicaID(i)))
		}
	}
	return s
}

// ID implements proc.Process for the embedding replica.
func (s *Shell) ID() types.NodeID { return types.ReplicaNode(s.self) }

// LogTo attaches the replica's write-ahead log, before Init.
func (s *Shell) LogTo(st store.Store) { s.store = st }

// --- timers ---

// AfterTimer arms a one-shot timer that runs fn on expiry (BatchHost).
func (s *Shell) AfterTimer(ctx proc.Context, d time.Duration, fn func(ctx proc.Context)) proc.TimerID {
	s.timerSeq++
	id := proc.TimerID(s.timerSeq)
	s.timerAct[id] = fn
	ctx.SetTimer(id, d)
	return id
}

// DisarmTimer cancels a timer armed with AfterTimer (BatchHost).
func (s *Shell) DisarmTimer(ctx proc.Context, id proc.TimerID) {
	delete(s.timerAct, id)
	ctx.CancelTimer(id)
}

// ForgetTimer drops a timer's action without cancelling it: the timer
// still expires, and does nothing.
func (s *Shell) ForgetTimer(id proc.TimerID) { delete(s.timerAct, id) }

// OnTimer implements proc.Process for the embedding replica: it runs the
// expired timer's action and syncs what the action logged.
func (s *Shell) OnTimer(ctx proc.Context, id proc.TimerID) {
	if fn, ok := s.timerAct[id]; ok {
		delete(s.timerAct, id)
		fn(ctx)
	}
	s.Sync()
}

// --- outbound gate ---

// open reports whether the replica may send now, after making durable
// whatever the message could depend on.
func (s *Shell) open() bool {
	if s.mute || s.recovering {
		return false
	}
	s.Sync()
	return true
}

// Send sends msg to one node through the gate.
func (s *Shell) Send(ctx proc.Context, to types.NodeID, msg codec.Message) {
	if !s.open() || (s.behavior != nil && !s.behavior.Outbound(ctx, to, msg)) {
		return
	}
	ctx.Send(to, msg)
}

// Broadcast sends msg to every other replica through the gate.
func (s *Shell) Broadcast(ctx proc.Context, msg codec.Message) {
	if !s.open() {
		return
	}
	if s.behavior != nil {
		// Per-destination interception forfeits the encode-once fan-out;
		// acceptable on the adversarial replica only.
		for _, p := range s.peers {
			if s.behavior.Outbound(ctx, p, msg) {
				ctx.Send(p, msg)
			}
		}
		return
	}
	// One encode serves every destination on broadcast-capable transports.
	proc.Broadcast(ctx, s.peers, msg)
}

// Inbound reports whether the replica's Behavior lets msg through.
func (s *Shell) Inbound(ctx proc.Context, from types.NodeID, msg codec.Message) bool {
	return s.behavior == nil || s.behavior.Inbound(ctx, from, msg)
}

// --- write-ahead log ---

// logging reports whether records are written: a store is attached, the
// replica is not recovering, and no store error turned logging off.
func (s *Shell) logging() bool { return s.store != nil && !s.recovering && s.walErr == nil }

// Recovering reports whether the replica is rebuilding itself from its
// store.
func (s *Shell) Recovering() bool { return s.recovering }

// Append logs one record of a protocol-defined kind whose body fill
// writes, if the replica is logging; the next Sync makes it durable.
func (s *Shell) Append(kind uint8, fill func(w *codec.Writer)) {
	if !s.logging() {
		return
	}
	w := codec.GetWriter()
	fill(w)
	_, err := s.store.Append(kind, w.Bytes())
	codec.PutWriter(w)
	if err != nil {
		s.walErr = err
		return
	}
	s.walDirty = true
	s.stats.WALRecords++
}

// Sync is the group-commit point: it makes durable every record appended
// since the last one.
func (s *Shell) Sync() {
	if !s.walDirty || s.walErr != nil {
		return
	}
	s.walDirty = false
	if err := s.store.Sync(); err != nil {
		s.walErr = err
	}
}

// SaveSnapshot cuts the store snapshot at what write streams into the
// io.Writer it is handed, if the replica is logging; the store then drops
// every record the snapshot subsumes. It is the one way every protocol
// cuts its snapshot. A store that is no store.Streamer gets the stream
// gathered into one buffer.
func (s *Shell) SaveSnapshot(write func(w io.Writer) error) {
	if !s.logging() {
		return
	}
	var err error
	if st, ok := s.store.(store.Streamer); ok {
		err = st.StreamSnapshot(write)
	} else {
		var buf bytes.Buffer
		if err = write(&buf); err == nil {
			err = s.store.SaveSnapshot(buf.Bytes())
		}
	}
	if err != nil {
		s.walErr = err
		return
	}
	s.walDirty = false // the snapshot write persisted everything pending
}

// Recover rebuilds the replica from its store if the store holds state,
// and reports whether it did: restore installs the snapshot (if there is
// one), replay applies each record above it in LSN order, and settle
// re-derives what they imply — all with the gate closed and logging off. A
// snapshot that does not load, or that restore refuses, latches its error
// and recovers nothing: the records above the cut mean nothing without it.
func (s *Shell) Recover(restore func(data []byte) error, replay func(rec store.Record), settle func()) bool {
	if s.store == nil || s.store.Empty() {
		return false
	}
	s.recovering = true
	defer func() { s.recovering = false }()
	data, _, err := s.store.LoadSnapshot()
	if err == nil && len(data) > 0 {
		err = restore(data)
	}
	if err != nil {
		s.walErr = err
		return false
	}
	if err := s.store.Replay(func(rec store.Record) error {
		replay(rec)
		return nil
	}); err != nil {
		s.walErr = err
	}
	settle()
	s.stats.Recoveries++
	return true
}

// WALStats returns the write-ahead-log counters.
func (s *Shell) WALStats() WALStats {
	st := s.stats
	st.WALFailed = s.walErr != nil
	return st
}
