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

// PBFT's half of the lifecycle (engine.LogHost and engine.DurableLogHost)
// is its host; the gated sends, timers, view and execution watermark come
// from its Sequencer.

func (h host) LogVote(m *Checkpoint) { h.walVote(m) }

func (h host) ExecutedSuffix(mark uint64) []engine.CatchupSlot {
	var out []engine.CatchupSlot
	for seq := mark + 1; seq <= h.MaxExec; seq++ {
		s, ok := h.Log[seq]
		if !ok || !s.Executed {
			break // the suffix must stay contiguous
		}
		reqs := make([]engine.CatchupCmd, len(s.Cmds))
		for i := range s.Cmds {
			reqs[i] = engine.CatchupCmd{Cmd: s.Cmds[i], Sig: s.sigs[i]}
		}
		out = append(out, engine.CatchupSlot{Seq: seq, View: s.View, Reqs: reqs})
	}
	return out
}

// Truncate also cuts a durable snapshot: a fresh stable checkpoint
// supersedes everything the WAL proved below it.
func (h host) Truncate(mark uint64) {
	h.sequencer.Truncate(mark)
	h.persistSnapshot()
}

func (h host) DropLog(mark uint64, _ types.Digest) { h.DropBelow(mark) }

func (h host) ReplaySlot(ctx proc.Context, cs *engine.CatchupSlot) {
	s := h.NewSlot(cs.Seq)
	s.prepared, s.committed = true, true
	s.sigs = make([][]byte, len(cs.Reqs))
	for j := range cs.Reqs {
		s.sigs[j] = cs.Reqs[j].Sig
	}
	h.Replay(ctx, cs, s)
	h.stats.Executed += uint64(len(cs.Reqs))
}

// AdoptView does nothing: PBFT moves to a new view only through NEW-VIEW.
func (host) AdoptView(proc.Context, uint64) {}

// Installed executes whatever the transfer made contiguous, and cuts a
// durable snapshot of the installed state.
func (h host) Installed(ctx proc.Context) {
	h.ExecuteReady(ctx, committed)
	h.persistSnapshot()
}
