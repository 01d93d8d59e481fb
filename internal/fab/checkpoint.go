package fab

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// FaB's log lifecycle runs on the shared engine.Lifecycle: replicas
// periodically broadcast signed CHECKPOINT votes over the executed sequence
// number and application state digest; 2f+1 matching votes establish a
// stable checkpoint, below which executed slots and out-of-window
// per-request bookkeeping are truncated, and a replica
// behind a stable checkpoint rejoins by f+1-validated state transfer.
// CheckpointInterval 0 (the default) disables the subsystem entirely — no
// extra messages, the protocol's original byte-identical flow. This file
// holds FaB's hooks and its STATUS beacon.
//
// A rejoined replica whose gap sits entirely above the last stable
// checkpoint gets no further stability signal once traffic quiesces — the
// missed PROPOSEs are never retransmitted, so without help it would stay
// wedged a few slots short forever. STATUS anti-entropy closes that tail:
// with checkpointing enabled each replica periodically broadcasts its
// signed executed watermark, and a replica that hears a higher one pulls a
// transfer whose agreed executed suffix replays on top of its own state,
// with no snapshot install.
var logTags = engine.LogTags{Checkpoint: 56, CatchupReq: 57, CatchupResp: 58}

const tagStatus = 59

// Status is a replica's periodic signed executed-watermark advertisement,
// ⟨STATUS, e, i⟩σi — the anti-entropy beacon that lets a rejoined replica
// discover a post-checkpoint tail gap after traffic quiesces. Broadcast
// only when checkpointing is enabled.
type Status struct {
	Replica types.ReplicaID
	MaxExec uint64
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *Status) Tag() uint8 { return tagStatus }

// MarshalTo implements codec.Message.
func (m *Status) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *Status) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.Uvarint(m.MaxExec)
}

func decodeStatus(r *codec.Reader) (*Status, error) {
	m := &Status{Replica: types.ReplicaID(r.Int32()), MaxExec: r.Uvarint()}
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	engine.RegisterLogMessages("fab", logTags)
	codec.Register(tagStatus, "fab.Status", func(r *codec.Reader) (codec.Message, error) { return decodeStatus(r) })
}

// armStatusTimer schedules the next STATUS broadcast. The period is a
// small multiple of ForwardTimeout — frequent enough that a tail gap
// closes well inside a convergence window, rare enough to be noise
// against agreement traffic.
func (r *Replica) armStatusTimer(ctx proc.Context) {
	r.AfterTimer(ctx, 2*r.cfg.ForwardTimeout, func(ctx proc.Context) {
		st := &Status{Replica: r.cfg.Self, MaxExec: r.MaxExec}
		r.cfg.Costs.ChargeSign(ctx)
		st.Sig = engine.SignBody(r.cfg.Auth, st)
		r.Broadcast(ctx, st)
		r.armStatusTimer(ctx)
	})
}

// handleStatus pulls a transfer when a peer advertises an executed
// watermark beyond ours. A lying watermark only costs wasted (rotated,
// backed-off) catch-up rounds: what installs is f+1-agreed and anchored to
// a verified checkpoint proof.
func (r *Replica) handleStatus(ctx proc.Context, m *Status) {
	if m.Replica == r.cfg.Self {
		r.stats.DroppedInvalid++
		return
	}
	if r.Life().Valid(ctx, m.Replica, m, m.Sig) && m.MaxExec > r.MaxExec {
		r.Life().Request(ctx, r.Life().Stable(0))
	}
}

// FaB's half of the lifecycle (engine.SeqLogHost) is its host; the
// snapshot cut, view, execution watermark, truncation and executed suffix
// come from its Sequencer.

// DropLog also advances the truncation point, so contiguous() scans from
// the installed watermark instead of the missing prefix.
func (h host) DropLog(mark uint64, _ types.Digest) {
	h.DropBelow(mark)
	for seq := range h.pending {
		if seq <= mark {
			delete(h.pending, seq)
		}
	}
}

// ReplaySlot rebuilds the reply cache as it executes, so client
// retransmissions are answered from it.
func (h host) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	s := h.NewSlot(cs.Seq)
	h.Replay(ctx, cs, s)
	for j := range s.Cmds {
		h.CacheReply(engine.KeyOf(&s.Cmds[j]), h.Reply(ctx, s, j))
	}
	h.stats.Executed += uint64(len(cs.Reqs))
	h.stats.Learned++
}

// Installed accepts and executes the buffered proposals above the transfer
// through the regular drain. A replica that missed view changes while
// partitioned has already moved to the view its responders vouch for (the
// Sequencer's AdoptView).
func (h host) Installed(ctx proc.Context) {
	if h.IsPrimary() && h.MaxExec+1 > h.NextSeq {
		h.NextSeq = h.MaxExec + 1
	}
	h.drain(ctx)
	if s, ok := h.Log[h.MaxExec+1]; ok {
		h.checkLearned(ctx, s)
	}
	h.MaybeEmit(ctx, types.Digest{})
}
