package zyzzyva

import (
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// Zyzzyva's log lifecycle runs on the shared engine.Lifecycle: replicas
// periodically broadcast signed CHECKPOINT votes over the executed sequence
// number and application state digest; 2f+1 matching votes establish a
// stable checkpoint, below which executed slots and out-of-window
// per-request bookkeeping are truncated, and a replica
// behind a stable checkpoint rejoins by f+1-validated state transfer, whose
// aux value is the history-chain hash at the checkpoint. CheckpointInterval
// 0 (the default) disables the subsystem entirely — no extra messages, the
// protocol's original byte-identical flow. This file holds Zyzzyva's hooks.
//
// Zyzzyva's own tag block (40-49) is full; the CATCHUP-RESP extends into
// the shared expansion block (60-69, see messages.go).
var logTags = engine.LogTags{Checkpoint: 48, CatchupReq: 49, CatchupResp: 65}

func init() { engine.RegisterLogMessages("zyzzyva", logTags) }

// Zyzzyva's half of the lifecycle (engine.LogHost) is its host; the gated
// sends, timers, view, execution watermark, truncation and executed suffix
// come from its Sequencer.

// DropLog adopts the history hash at the installed checkpoint, from which
// replayed slots re-derive the chain.
func (h host) DropLog(mark uint64, histHash types.Digest) {
	h.DropBelow(mark)
	h.histHash = histHash
	for seq := range h.pending {
		if seq <= mark {
			delete(h.pending, seq)
		}
	}
}

func (h host) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	e := &logEntry{Batch: engine.Batch{
		Seq:      cs.Seq,
		Cmds:     make([]types.Command, len(cs.Reqs)),
		Digests:  make([]types.Digest, len(cs.Reqs)),
		Results:  make([]types.Result, len(cs.Reqs)),
		Executed: true,
	}}
	for j := range cs.Reqs {
		cmd := cs.Reqs[j].Cmd
		e.Cmds[j], e.Digests[j] = cmd, cmd.Digest()
		h.cfg.Costs.ChargeExecute(ctx)
		e.Results[j] = h.cfg.App.Apply(cmd)
		h.Record(&e.Cmds[j], cs.Seq)
		h.stats.SpecExecuted++
	}
	e.Digest = engine.BatchDigest(e.Digests)
	e.histHash = chainHash(h.histHash, e.Digest)
	h.Log[cs.Seq] = e
	h.MaxExec = cs.Seq
	h.histHash = e.histHash
}

// AdoptView moves a replica that missed view changes while partitioned to
// the view its responders vouch for; it would otherwise drop every
// ORDERREQ of the current view.
func (h host) AdoptView(_ proc.Context, view uint64) {
	if view > h.View() {
		h.EnterView(view)
	}
}

// Installed executes the buffered assignments above the transfer through
// the regular drain.
func (h host) Installed(ctx proc.Context) {
	if h.IsPrimary() {
		h.NextSeq = h.MaxExec + 1
	}
	h.drain(ctx)
	h.Life().MaybeEmit(ctx, h.histHash)
}
