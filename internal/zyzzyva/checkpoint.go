package zyzzyva

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// Zyzzyva's log lifecycle runs on the shared engine.Lifecycle: replicas
// periodically broadcast signed CHECKPOINT votes over the executed sequence
// number and application state digest; 2f+1 matching votes establish a
// stable checkpoint, below which executed slots and out-of-window
// per-request bookkeeping (byCmd / replyCache) are truncated, and a replica
// behind a stable checkpoint rejoins by f+1-validated state transfer, whose
// aux value is the history-chain hash at the checkpoint. CheckpointInterval
// 0 (the default) disables the subsystem entirely — no extra messages, the
// protocol's original byte-identical flow. This file holds Zyzzyva's hooks.
//
// Zyzzyva's own tag block (40-49) is full; the CATCHUP-RESP extends into
// the shared expansion block (60-69, see messages.go).
var logTags = engine.LogTags{Checkpoint: 48, CatchupReq: 49, CatchupResp: 65}

func init() { engine.RegisterLogMessages("zyzzyva", logTags) }

// logHost is Zyzzyva's half of the lifecycle (engine.LogHost).
type logHost struct{ *Replica }

func (h logHost) Send(ctx proc.Context, to types.NodeID, msg codec.Message) { h.send(ctx, to, msg) }
func (h logHost) Broadcast(ctx proc.Context, msg codec.Message)             { h.broadcastReplicas(ctx, msg) }
func (h logHost) Executed() uint64                                          { return h.maxSeq }
func (h logHost) Truncate(mark uint64)                                      { h.gcBelow(mark) }

func (h logHost) ExecutedSuffix(mark uint64) []engine.CatchupSlot {
	var out []engine.CatchupSlot
	for seq := mark + 1; seq <= h.maxSeq; seq++ {
		e, ok := h.log[seq]
		if !ok || !e.executed {
			break // the suffix must stay contiguous
		}
		out = append(out, engine.CatchupSlot{Seq: seq, View: h.view, Reqs: engine.UnsignedCmds(e.cmds)})
	}
	return out
}

// DropLog adopts the history hash at the installed checkpoint, from which
// replayed slots re-derive the chain.
func (h logHost) DropLog(mark uint64, histHash types.Digest) {
	h.maxSeq = mark
	h.histHash = histHash
	for seq := range h.log {
		if seq <= mark {
			delete(h.log, seq)
		}
	}
	for seq := range h.pending {
		if seq <= mark {
			delete(h.pending, seq)
		}
	}
}

func (h logHost) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	e := &logEntry{
		seq:      cs.Seq,
		cmds:     make([]types.Command, len(cs.Reqs)),
		digests:  make([]types.Digest, len(cs.Reqs)),
		results:  make([]types.Result, len(cs.Reqs)),
		executed: true,
	}
	for j := range cs.Reqs {
		cmd := cs.Reqs[j].Cmd
		e.cmds[j], e.digests[j] = cmd, cmd.Digest()
		h.cfg.Costs.ChargeExecute(ctx)
		e.results[j] = h.cfg.App.Apply(cmd)
		h.byCmd[cmdKey{cmd.Client, cmd.Timestamp}] = cs.Seq
		h.window.Seen(cmd.Client, cmd.Timestamp)
		h.stats.SpecExecuted++
	}
	e.cmdDigest = engine.BatchDigest(e.digests)
	e.histHash = chainHash(h.histHash, e.cmdDigest)
	h.log[cs.Seq] = e
	h.maxSeq = cs.Seq
	h.histHash = e.histHash
}

// AdoptView moves a replica that missed view changes while partitioned to
// the view its responders vouch for; it would otherwise drop every
// ORDERREQ of the current view.
func (h logHost) AdoptView(_ proc.Context, view uint64) {
	if view <= h.view {
		return
	}
	h.view = view
	h.inVC = false
	h.batcher.Drop()
	for key, id := range h.forwarded {
		delete(h.forwarded, key)
		delete(h.timerAct, id)
	}
}

// Installed executes the buffered assignments above the transfer through
// the regular drain.
func (h logHost) Installed(ctx proc.Context) {
	if primaryOf(h.view, h.n) == h.cfg.Self {
		h.nextSeq = h.maxSeq + 1
	}
	for {
		next, ok := h.pending[h.maxSeq+1]
		if !ok {
			break
		}
		delete(h.pending, h.maxSeq+1)
		h.acceptOrderReq(ctx, next, nil)
	}
	h.life.MaybeEmit(ctx, h.histHash)
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
