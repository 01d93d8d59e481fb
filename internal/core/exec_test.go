package core

import (
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
)

// ExecHarness drives one replica's final-execution machinery directly,
// bypassing the message protocol: callers install committed instances —
// with the dependency sets and sequence numbers an honest cluster would
// agree on under that arrival order — and run execution passes over them.
// Nothing is signed, sent, or timed.
type ExecHarness struct {
	r        *Replica
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
func (h *ExecHarness) Execute() { h.r.tryExecute(noopCtx{}) }

// Pending returns how many committed instances still await final execution.
func (h *ExecHarness) Pending() int { return len(h.r.pendingExec) }

// TestExecExactlyOnceAcrossClosures pins the exactly-once memo when the
// same command lands in two different closures of one execution pass: two
// independent entries (no dependency edges — a Byzantine participant lying
// about deps produces exactly this) carry the same client request; the
// application must execute it once, the second occurrence reusing the
// memoized result.
func TestExecExactlyOnceAcrossClosures(t *testing.T) {
	store := kvstore.New()
	rep, err := NewReplica(ReplicaConfig{Self: 0, N: 4, App: store, Auth: auth.Noop{}})
	if err != nil {
		t.Fatal(err)
	}
	rep.RecordExecutions()
	cmd := types.Command{Client: 7, Timestamp: 1, Op: types.OpPut, Key: "dup", Value: []byte("v")}
	for i, space := range []types.ReplicaID{0, 1} {
		e := &entry{
			inst:      types.InstanceID{Space: space, Slot: 1},
			cmd:       cmd,
			cmdDigest: cmd.Digest(),
			deps:      types.NewInstanceSet(),
			seq:       types.SeqNumber(i + 1),
			status:    StatusCommitted,
		}
		rep.log.put(e)
		rep.pendingExec[e.inst] = e
	}
	rep.tryExecute(noopCtx{})
	if len(rep.pendingExec) != 0 {
		t.Fatalf("%d instances still pending", len(rep.pendingExec))
	}
	finals, _, _ := store.Stats()
	if finals != 1 {
		t.Fatalf("application executed the duplicate %d times, want exactly 1", finals)
	}
	log := rep.ExecutedLog()
	if len(log) != 2 {
		t.Fatalf("execution log has %d records, want 2", len(log))
	}
	if !log[0].Result.Equal(log[1].Result) {
		t.Fatalf("duplicate results differ: %+v vs %+v", log[0].Result, log[1].Result)
	}
}

// TestExecExactlyOnceWithinClosure is the same guarantee when the duplicate
// occurrences are dependency-linked into one closure (the normal honest
// shape, since identical commands interfere): the second occurrence must be
// answered from the memo the first one wrote earlier in the same walk.
func TestExecExactlyOnceWithinClosure(t *testing.T) {
	store := kvstore.New()
	h, err := NewExecHarness(ReplicaConfig{Self: 0, N: 4, App: store, Auth: auth.Noop{}})
	if err != nil {
		t.Fatal(err)
	}
	cmd := types.Command{Client: 3, Timestamp: 9, Op: types.OpIncr, Key: "ctr"}
	h.Commit(0, cmd)
	h.Commit(1, cmd) // duplicate: depends on the first via the key index
	h.Execute()
	if h.Pending() != 0 {
		t.Fatalf("%d instances still pending", h.Pending())
	}
	finals, _, _ := store.Stats()
	if finals != 1 {
		t.Fatalf("application executed the duplicate %d times, want exactly 1", finals)
	}
	v, _ := store.Get("ctr")
	if got := kvstore.Counter(v); got != 1 {
		t.Fatalf("counter incremented %d times, want 1", got)
	}
}
