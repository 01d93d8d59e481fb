package pbft

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// PBFT's log lifecycle runs on the shared engine.Lifecycle: CHECKPOINT
// votes (write-ahead-logged before they are tallied) establish stable
// checkpoints, truncation frees the per-request bookkeeping (byCmd /
// replyCache) alongside the slot map, and a replica that falls behind the
// low-water mark rejoins by f+1-validated state transfer. This file holds
// PBFT's hooks.
var logTags = engine.LogTags{Checkpoint: 35, CatchupReq: 38, CatchupResp: 39}

// Checkpoint is PBFT's CHECKPOINT vote ⟨CHECKPOINT, n, d, i⟩σi: the
// engine's shared vote, travelling under tag 35.
type Checkpoint = engine.Checkpoint

func init() { engine.RegisterLogMessages("pbft", logTags) }

// logHost is PBFT's half of the lifecycle (engine.LogHost and
// engine.DurableLogHost).
type logHost struct{ *Replica }

func (h logHost) Send(ctx proc.Context, to types.NodeID, msg codec.Message) { h.send(ctx, to, msg) }
func (h logHost) Broadcast(ctx proc.Context, msg codec.Message)             { h.broadcastReplicas(ctx, msg) }
func (h logHost) Executed() uint64                                          { return h.maxExec }
func (h logHost) LogVote(m *Checkpoint)                                     { h.walVote(m) }
func (h logHost) Recovering() bool                                          { return h.recovering }

func (h logHost) ExecutedSuffix(mark uint64) []engine.CatchupSlot {
	var out []engine.CatchupSlot
	for seq := mark + 1; seq <= h.maxExec; seq++ {
		s, ok := h.slots[seq]
		if !ok || !s.executed {
			break // the suffix must stay contiguous
		}
		reqs := make([]engine.CatchupCmd, len(s.reqs))
		for i := range s.reqs {
			reqs[i] = engine.CatchupCmd{Cmd: s.reqs[i].Cmd, Sig: s.reqs[i].Sig}
		}
		out = append(out, engine.CatchupSlot{Seq: seq, View: s.view, Reqs: reqs})
	}
	return out
}

// Truncate also cuts a durable snapshot: a fresh stable checkpoint
// supersedes everything the WAL proved below it.
func (h logHost) Truncate(mark uint64) {
	h.gcBelow(mark)
	h.persistSnapshot()
}

func (h logHost) DropLog(mark uint64, _ types.Digest) {
	h.maxExec = mark
	for seq := range h.slots {
		if seq <= mark {
			delete(h.slots, seq)
		}
	}
}

func (h logHost) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	delete(h.slots, cs.Seq)
	s := h.slot(cs.Seq)
	s.view = cs.View
	s.havePre, s.prepared, s.committed = true, true, true
	s.reqs = make([]Request, len(cs.Reqs))
	s.digests = make([]types.Digest, len(cs.Reqs))
	s.results = make([]types.Result, len(cs.Reqs))
	for j := range cs.Reqs {
		cmd := cs.Reqs[j].Cmd
		s.reqs[j] = Request{Cmd: cmd, Sig: cs.Reqs[j].Sig}
		s.digests[j] = cmd.Digest()
		h.cfg.Costs.ChargeExecute(ctx)
		s.results[j] = h.cfg.App.Apply(cmd)
		h.byCmd[cmdKey{cmd.Client, cmd.Timestamp}] = cs.Seq
		h.window.Seen(cmd.Client, cmd.Timestamp)
	}
	s.cmdDigest = engine.BatchDigest(s.digests)
	s.executed = true
	h.maxExec = cs.Seq
	h.stats.Executed += uint64(len(cs.Reqs))
}

// AdoptView does nothing: PBFT moves to a new view only through NEW-VIEW.
func (logHost) AdoptView(proc.Context, uint64) {}

// Installed executes whatever the transfer made contiguous, and cuts a
// durable snapshot of the installed state.
func (h logHost) Installed(ctx proc.Context) {
	h.executeReady(ctx)
	h.persistSnapshot()
}

// gcBelow discards log state at and below the stable checkpoint (keeping
// LogRetention extra sequence numbers): executed slots are freed, and the
// per-request bookkeeping they carried — reply cache, exactly-once table —
// is handed to the client window to release (engine.RequestWindow).
func (r *Replica) gcBelow(seq uint64) {
	if r.cfg.LogRetention >= seq {
		return
	}
	seq -= r.cfg.LogRetention
	for s, slot := range r.slots {
		if s > seq || !slot.executed {
			continue
		}
		for i := range slot.reqs {
			r.window.Truncated(slot.reqs[i].Cmd.Client, slot.reqs[i].Cmd.Timestamp)
		}
		delete(r.slots, s)
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
