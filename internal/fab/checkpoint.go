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
	if m.Replica < 0 || int(m.Replica) >= r.n || m.Replica == r.cfg.Self {
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
	if m.MaxExec > r.MaxExec {
		r.Life().Pull(ctx)
	}
}

// FaB's half of the lifecycle (engine.LogHost) is its host; the gated
// sends, timers, view, execution watermark, truncation and executed suffix
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
	s := &slotState{
		Batch: engine.Batch{
			Seq:      cs.Seq,
			Cmds:     make([]types.Command, len(cs.Reqs)),
			Digests:  make([]types.Digest, len(cs.Reqs)),
			Results:  make([]types.Result, len(cs.Reqs)),
			Executed: true,
		},
		accepts: make(map[types.ReplicaID]bool),
		havePro: true, learned: true,
	}
	for j := range cs.Reqs {
		cmd := &s.Cmds[j]
		*cmd = cs.Reqs[j].Cmd
		s.Digests[j] = cmd.Digest()
		h.cfg.Costs.ChargeExecute(ctx)
		s.Results[j] = h.cfg.App.Apply(*cmd)
		h.Record(cmd, cs.Seq)
		h.CacheReply(engine.KeyOf(cmd), h.Reply(ctx, s, j))
		h.stats.Executed++
	}
	s.Digest = engine.BatchDigest(s.Digests)
	h.Log[cs.Seq] = s
	h.MaxExec = cs.Seq
	h.stats.Learned++
}

// AdoptView moves a replica that missed leader changes while partitioned
// to the view its responders vouch for; it would otherwise drop every
// PROPOSE of the current view.
func (h host) AdoptView(_ proc.Context, view uint64) {
	if view > h.View() {
		h.enterView(view)
	}
}

// Installed accepts and executes the buffered proposals above the transfer
// through the regular drain.
func (h host) Installed(ctx proc.Context) {
	if h.IsPrimary() && h.MaxExec+1 > h.NextSeq {
		h.NextSeq = h.MaxExec + 1
	}
	h.drain(ctx)
	if s, ok := h.Log[h.MaxExec+1]; ok {
		h.checkLearned(ctx, s)
	}
	h.Life().MaybeEmit(ctx, types.Digest{})
}
