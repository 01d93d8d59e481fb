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

// Zyzzyva's half of the lifecycle (engine.SeqLogHost) is its host; the
// snapshot cut, view, execution watermark, truncation and executed suffix
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
	e := &logEntry{}
	h.Replay(ctx, cs, e)
	e.histHash = chainHash(h.histHash, e.Digest)
	h.histHash = e.histHash
	h.stats.SpecExecuted += uint64(len(cs.Reqs))
}

// Installed executes what a NEW-VIEW ordered above the transfer, then the
// buffered assignments through the regular drain. A replica that missed
// view changes while partitioned has already moved to the view its
// responders vouch for (the Sequencer's AdoptView).
func (h host) Installed(ctx proc.Context) {
	if h.IsPrimary() {
		h.NextSeq = max(h.NextSeq, h.MaxExec+1)
	}
	h.executeLog(ctx)
	h.drain(ctx)
	h.MaybeEmit(ctx, h.histHash)
}
