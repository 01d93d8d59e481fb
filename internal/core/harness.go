package core

import (
	"math/rand"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// ExecHarness drives one replica's final-execution machinery directly,
// bypassing the message protocol: callers install committed instances —
// with the dependency sets and sequence numbers an honest cluster would
// agree on under that arrival order — and run execution passes over them.
// It exists for the execution benchmarks (internal/bench's exec sweep) and
// the linearizability-style checkers, which need to drive the executor at
// memory speed and under controlled interleavings; protocol behaviour is
// entirely out of scope (nothing is signed, sent, or timed).
type ExecHarness struct {
	r        *Replica
	ctx      inertCtx
	nextSlot []uint64
}

// NewExecHarness builds a harness around a fresh replica. The configuration
// is validated exactly as NewReplica validates it; Auth may be auth.Noop
// since nothing is ever signed.
func NewExecHarness(cfg ReplicaConfig) (*ExecHarness, error) {
	r, err := NewReplica(cfg)
	if err != nil {
		return nil, err
	}
	r.RecordExecutions()
	h := &ExecHarness{r: r, nextSlot: make([]uint64, cfg.N)}
	for i := range h.nextSlot {
		h.nextSlot[i] = 1
	}
	return h, nil
}

// Commit installs one committed instance in the given space, batching the
// given commands, and returns its instance identifier. Dependencies and the
// sequence number are collected from the harness's dependency index — the
// agreement an honest cluster reaches when proposals arrive in Commit-call
// order. The entry is enqueued for final execution but not executed; call
// Execute to run a pass.
func (h *ExecHarness) Commit(space types.ReplicaID, cmds ...types.Command) types.InstanceID {
	r := h.r
	inst := types.InstanceID{Space: space, Slot: h.nextSlot[space]}
	h.nextSlot[space]++

	var deps types.InstanceSet
	var maxSeq types.SeqNumber
	for _, cmd := range cmds {
		d, s := r.deps.collect(cmd, inst)
		deps.Union(d)
		if s > maxSeq {
			maxSeq = s
		}
	}
	seq := maxSeq + 1

	e := &entry{
		inst:      inst,
		cmd:       cmds[0],
		cmdDigest: cmds[0].Digest(),
		deps:      deps,
		seq:       seq,
		status:    StatusCommitted,
	}
	if len(cmds) > 1 {
		e.extra = append([]types.Command(nil), cmds[1:]...)
	}
	r.log.put(e)
	for _, cmd := range cmds {
		r.deps.update(inst, cmd, seq)
	}
	r.pendingExec[inst] = e
	return inst
}

// Execute runs one execution pass over everything committed so far, exactly
// as a commit arrival would trigger it.
func (h *ExecHarness) Execute() { h.r.tryExecute(h.ctx) }

// Pending returns how many committed instances still await final execution.
func (h *ExecHarness) Pending() int { return len(h.r.pendingExec) }

// ExecutedLog returns the replica's execution log (see Replica.ExecutedLog).
func (h *ExecHarness) ExecutedLog() []ExecRecord { return h.r.ExecutedLog() }

// Stats returns the replica's counters.
func (h *ExecHarness) Stats() ReplicaStats { return h.r.Stats() }

// Digest returns the application state digest.
func (h *ExecHarness) Digest() types.Digest { return h.r.cfg.App.Digest() }

// inertCtx is a do-nothing runtime context: the harness runs execution
// passes outside any runtime, so sends, timers, and virtual-time charges
// all evaporate.
type inertCtx struct{}

var _ proc.Context = inertCtx{}

func (inertCtx) Now() time.Duration                   { return 0 }
func (inertCtx) Send(types.NodeID, codec.Message)     {}
func (inertCtx) SetTimer(proc.TimerID, time.Duration) {}
func (inertCtx) CancelTimer(proc.TimerID)             {}
func (inertCtx) Charge(time.Duration)                 {}
func (inertCtx) Rand() *rand.Rand                     { return rand.New(rand.NewSource(0)) }
