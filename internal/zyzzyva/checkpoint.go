package zyzzyva

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// This file implements Zyzzyva's log lifecycle on the engine-level
// checkpointing contract (engine.CheckpointTracker): replicas periodically
// broadcast signed CHECKPOINT votes over the executed sequence number and
// application state digest; 2f+1 matching votes establish a stable
// checkpoint, below which executed slots and out-of-window per-request
// bookkeeping (byCmd / replyCache) are truncated. CheckpointInterval 0 (the
// default) disables the subsystem entirely — no extra messages, the
// protocol's original byte-identical flow.
const tagCheckpoint = 48

// Checkpoint is a replica's signed executed-watermark vote,
// ⟨CHECKPOINT, n, d, i⟩σi.
type Checkpoint struct {
	Seq     uint64
	Digest  types.Digest
	Replica types.ReplicaID
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Checkpoint) Tag() uint8 { return tagCheckpoint }

// MarshalTo implements codec.Message.
func (m *Checkpoint) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Checkpoint) MarshalBody(w *codec.Writer) {
	w.Uvarint(m.Seq)
	w.Bytes32(m.Digest)
	w.Int32(int32(m.Replica))
}

func decodeCheckpoint(r *codec.Reader) (*Checkpoint, error) {
	m := &Checkpoint{
		Seq:     r.Uvarint(),
		Digest:  r.Bytes32(),
		Replica: types.ReplicaID(r.Int32()),
	}
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	codec.Register(tagCheckpoint, "zyzzyva.Checkpoint", func(r *codec.Reader) (codec.Message, error) { return decodeCheckpoint(r) })
}

// maybeEmitCheckpoint broadcasts this replica's checkpoint vote whenever
// the executed watermark crosses an interval boundary.
func (r *Replica) maybeEmitCheckpoint(ctx proc.Context) {
	if !r.ckpt.Boundary(r.maxSeq) || r.maxSeq <= r.ckptEmitted {
		return
	}
	r.ckptEmitted = r.maxSeq
	// Keep the application state and history hash at exactly this sequence
	// number: once the checkpoint becomes stable they are the verifiable
	// state-transfer payload for lagging replicas (catchup.go).
	r.states.Keep(r.maxSeq, r.histHash)
	ck := &Checkpoint{Seq: r.maxSeq, Digest: r.cfg.App.Digest(), Replica: r.cfg.Self}
	r.cfg.Costs.ChargeSign(ctx)
	ck.Sig = engine.SignBody(r.cfg.Auth, ck)
	r.broadcastReplicas(ctx, ck)
	r.recordCheckpoint(ctx, ck)
}

func (r *Replica) handleCheckpoint(ctx proc.Context, m *Checkpoint) {
	if !r.ckpt.Enabled() {
		return
	}
	if m.Replica < 0 || int(m.Replica) >= r.n {
		r.stats.DroppedInvalid++
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	r.recordCheckpoint(ctx, m)
}

// recordCheckpoint tallies one vote; a newly stable checkpoint truncates
// the log, surfaces to the application's Checkpointer hook, and — when this
// replica's executed watermark is behind the agreed mark — triggers
// checkpoint-based state transfer (catchup.go).
func (r *Replica) recordCheckpoint(ctx proc.Context, m *Checkpoint) {
	st := r.ckpt.Record(0, m.Seq, m.Replica, m.Digest, m)
	if st == nil {
		return
	}
	r.gcBelow(st.Mark)
	if ck, ok := r.cfg.App.(types.Checkpointer); ok {
		ck.Checkpoint(st.Mark, st.Digest)
	}
	if r.maxSeq < st.Mark {
		r.requestCatchup(ctx, st)
	}
}

// gcBelow frees executed slots at and below the stable checkpoint (keeping
// LogRetention extra sequence numbers) and hands their per-request
// bookkeeping to the client window to release (engine.RequestWindow).
func (r *Replica) gcBelow(seq uint64) {
	if r.cfg.LogRetention >= seq {
		return
	}
	seq -= r.cfg.LogRetention
	for s, e := range r.log {
		if s > seq || !e.executed {
			continue
		}
		for i := range e.cmds {
			r.window.Truncated(e.cmds[i].Client, e.cmds[i].Timestamp)
		}
		delete(r.log, s)
		r.stats.TruncatedEntries++
	}
}

// releaseRequest drops one request's reply-cache and exactly-once entries;
// the window calls it once the request's slot is truncated and the request
// is engine.ReplyRetention timestamps behind its client's highest.
func (r *Replica) releaseRequest(client types.ClientID, ts uint64) {
	key := cmdKey{client, ts}
	delete(r.byCmd, key)
	delete(r.replyCache, key)
}

// SlotCount returns the number of retained log slots (soak-test
// observable).
func (r *Replica) SlotCount() int { return len(r.log) }

// RequestStateCount returns the size of the larger per-request table (reply
// cache, exactly-once table): the bounded-memory observable beside
// SlotCount.
func (r *Replica) RequestStateCount() int { return max(len(r.byCmd), len(r.replyCache)) }
