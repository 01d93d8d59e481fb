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
// per-request bookkeeping (byCmd / replyCache) are truncated, and a replica
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
	r.afterTimer(ctx, 2*r.cfg.ForwardTimeout, func(ctx proc.Context) {
		st := &Status{Replica: r.cfg.Self, MaxExec: r.maxExec}
		r.cfg.Costs.ChargeSign(ctx)
		st.Sig = engine.SignBody(r.cfg.Auth, st)
		r.broadcastReplicas(ctx, st)
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
	if m.MaxExec > r.maxExec {
		r.life.Pull(ctx)
	}
}

// logHost is FaB's half of the lifecycle (engine.LogHost).
type logHost struct{ *Replica }

func (h logHost) Send(ctx proc.Context, to types.NodeID, msg codec.Message) { h.send(ctx, to, msg) }
func (h logHost) Broadcast(ctx proc.Context, msg codec.Message)             { h.broadcastReplicas(ctx, msg) }
func (h logHost) Executed() uint64                                          { return h.maxExec }
func (h logHost) Truncate(mark uint64)                                      { h.gcBelow(mark) }

func (h logHost) ExecutedSuffix(mark uint64) []engine.CatchupSlot {
	var out []engine.CatchupSlot
	for seq := mark + 1; seq <= h.maxExec; seq++ {
		s, ok := h.slots[seq]
		if !ok || !s.executed {
			break // the suffix must stay contiguous
		}
		out = append(out, engine.CatchupSlot{Seq: seq, View: h.view, Reqs: engine.UnsignedCmds(s.cmds)})
	}
	return out
}

// DropLog also advances the truncation point, so contiguous() scans from
// the installed watermark instead of the missing prefix.
func (h logHost) DropLog(mark uint64, _ types.Digest) {
	h.maxExec = mark
	h.truncated = max(h.truncated, mark)
	for seq := range h.slots {
		if seq <= mark {
			delete(h.slots, seq)
		}
	}
	for seq := range h.pending {
		if seq <= mark {
			delete(h.pending, seq)
		}
	}
}

// ReplaySlot rebuilds the reply cache as it executes, so client
// retransmissions are answered from it.
func (h logHost) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	s := &slotState{
		seq:     cs.Seq,
		cmds:    make([]types.Command, len(cs.Reqs)),
		digests: make([]types.Digest, len(cs.Reqs)),
		accepts: make(map[types.ReplicaID]bool),
		havePro: true, learned: true, executed: true,
		results: make([]types.Result, len(cs.Reqs)),
	}
	for j := range cs.Reqs {
		cmd := cs.Reqs[j].Cmd
		s.cmds[j] = cmd
		s.digests[j] = cmd.Digest()
		h.cfg.Costs.ChargeExecute(ctx)
		s.results[j] = h.cfg.App.Apply(cmd)
		key := cmdKey{cmd.Client, cmd.Timestamp}
		h.byCmd[key] = cs.Seq
		h.window.Seen(cmd.Client, cmd.Timestamp)
		reply := &Reply{
			View:      h.view,
			Timestamp: cmd.Timestamp,
			Client:    cmd.Client,
			Replica:   h.cfg.Self,
			Result:    s.results[j],
		}
		h.cfg.Costs.ChargeSign(ctx)
		reply.Sig = engine.SignBody(h.cfg.Auth, reply)
		h.replyCache[key] = reply
		h.stats.Executed++
	}
	s.cmdDigest = engine.BatchDigest(s.digests)
	h.slots[cs.Seq] = s
	h.maxExec = cs.Seq
	h.stats.Learned++
}

// AdoptView moves a replica that missed leader changes while partitioned
// to the view its responders vouch for; it would otherwise drop every
// PROPOSE of the current view.
func (h logHost) AdoptView(_ proc.Context, view uint64) {
	if view > h.view {
		h.enterView(view)
	}
}

// Installed accepts and executes the buffered proposals above the transfer
// through the regular drain.
func (h logHost) Installed(ctx proc.Context) {
	if leaderOf(h.view, h.n) == h.cfg.Self && h.maxExec+1 > h.nextSeq {
		h.nextSeq = h.maxExec + 1
	}
	for {
		next, ok := h.pending[h.contiguous()+1]
		if !ok {
			break
		}
		delete(h.pending, next.Seq)
		h.acceptPropose(ctx, next, nil)
	}
	if s, ok := h.slots[h.maxExec+1]; ok {
		h.checkLearned(ctx, s)
	}
	h.life.MaybeEmit(ctx, types.Digest{})
}

// gcBelow frees executed slots at and below the stable checkpoint (keeping
// LogRetention extra sequence numbers) and hands their per-request
// bookkeeping to the client window to release (engine.RequestWindow).
func (r *Replica) gcBelow(seq uint64) {
	if r.cfg.LogRetention >= seq {
		return
	}
	seq -= r.cfg.LogRetention
	// Never truncate beyond this replica's own executed prefix: contiguity
	// (and the proposals still needed to execute) would be lost.
	if seq > r.maxExec {
		seq = r.maxExec
	}
	if seq <= r.truncated {
		return
	}
	for s, slot := range r.slots {
		if s > seq || !slot.executed {
			continue
		}
		for i := range slot.cmds {
			r.window.Truncated(slot.cmds[i].Client, slot.cmds[i].Timestamp)
		}
		delete(r.slots, s)
		r.stats.TruncatedEntries++
	}
	r.truncated = seq
}

// releaseRequest drops one request's reply-cache and exactly-once entries;
// the window calls it once the request's slot is truncated and the request
// is engine.ReplyRetention timestamps behind its client's highest.
func (r *Replica) releaseRequest(client types.ClientID, ts uint64) {
	key := cmdKey{client, ts}
	delete(r.byCmd, key)
	delete(r.replyCache, key)
}

// SlotCount returns the number of retained slots (soak-test observable).
func (r *Replica) SlotCount() int { return len(r.slots) }

// RequestStateCount returns the size of the larger per-request table (reply
// cache, exactly-once table): the bounded-memory observable beside
// SlotCount.
func (r *Replica) RequestStateCount() int { return max(len(r.byCmd), len(r.replyCache)) }
