package pbft

import (
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// PBFT's log lifecycle runs on the shared engine.Lifecycle: CHECKPOINT
// votes (write-ahead-logged before they are tallied) establish stable
// checkpoints, truncation frees the per-request bookkeeping alongside
// the slot log, and a replica that falls behind the
// low-water mark rejoins by f+1-validated state transfer. This file holds
// PBFT's hooks.
var logTags = engine.LogTags{Checkpoint: 35, CatchupReq: 38, CatchupResp: 39}

// Checkpoint is PBFT's CHECKPOINT vote ⟨CHECKPOINT, n, d, i⟩σi: the
// engine's shared vote, travelling under tag 35.
type Checkpoint = engine.Checkpoint

func init() { engine.RegisterLogMessages("pbft", logTags) }

// PBFT's half of the lifecycle (engine.SeqLogHost) is its host; the
// snapshot cut, view, execution watermark and truncation come from its
// Sequencer.

// ExecutedSuffix serves the executed slots above mark with their client
// signatures.
func (h host) ExecutedSuffix(mark uint64) []engine.CatchupSlot {
	var out []engine.CatchupSlot
	for seq := mark + 1; seq <= h.MaxExec; seq++ {
		s, ok := h.Log[seq]
		if !ok || !s.Executed {
			break // the suffix must stay contiguous
		}
		reqs := make([]engine.CatchupCmd, len(s.Cmds))
		for i := range s.Cmds {
			reqs[i] = engine.CatchupCmd{Cmd: s.Cmds[i], Sig: h.ClientSig(&s.Batch, i)}
		}
		out = append(out, engine.CatchupSlot{Seq: seq, View: s.View, Reqs: reqs})
	}
	return out
}

func (h host) DropLog(mark uint64, _ types.Digest) { h.DropBelow(mark) }

func (h host) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	s := h.NewSlot(cs.Seq)
	s.prepared = true
	h.Replay(ctx, cs, s)
	h.stats.Executed += uint64(len(cs.Reqs))
}

// AdoptView does nothing: PBFT moves to a new view only through NEW-VIEW.
func (host) AdoptView(proc.Context, uint64) {}

// Installed executes whatever the transfer made contiguous.
func (h host) Installed(ctx proc.Context) { h.ExecuteReady(ctx) }
