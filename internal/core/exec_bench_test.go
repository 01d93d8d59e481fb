package core

import (
	"fmt"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
)

// stuckReplica builds a replica with `backlog` committed entries all stuck
// behind one uncommitted dependency — the shape a contended workload
// produces, where every commit arrival re-runs the tryExecute pass over
// the whole backlog without executing anything.
func stuckReplica(tb testing.TB, backlog int) *Replica {
	tb.Helper()
	rep, err := NewReplica(ReplicaConfig{Self: 0, N: 4, App: kvstore.New(), Auth: auth.Noop{}})
	if err != nil {
		tb.Fatal(err)
	}
	blocker := types.InstanceID{Space: 1, Slot: 1 << 20}
	prev := blocker
	for i := 1; i <= backlog; i++ {
		inst := types.InstanceID{Space: 0, Slot: uint64(i)}
		deps := types.NewInstanceSet()
		deps.Add(prev)
		prev = inst
		e := &entry{
			inst:   inst,
			cmd:    types.Command{Client: 1, Timestamp: uint64(i), Op: types.OpPut, Key: fmt.Sprint(i)},
			deps:   deps,
			seq:    types.SeqNumber(i),
			status: StatusCommitted,
		}
		rep.log.put(e)
		rep.pendingExec[inst] = e
	}
	return rep
}

// BenchmarkTryExecuteContended measures one execution pass over a stuck
// backlog of 256 committed entries — the per-commit cost on a contended
// workload. The pass-local scratch (pending order, blocked set, closure
// traversal) is replica-owned and recycled, so steady-state passes stay
// allocation-free; the benchmark's allocs/op guards that.
func BenchmarkTryExecuteContended(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		rep := stuckReplica(b, 256)
		ctx := noopCtx{}
		rep.tryExecute(ctx) // warm the scratch to steady-state capacity
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep.tryExecute(ctx)
		}
	})
}

// TestTryExecuteScratchReuse pins the fix: after the first pass sizes the
// scratch, further passes over the same stuck backlog allocate (almost)
// nothing. The bound of 4 allocations leaves room for runtime noise while
// failing loudly if the per-pass pending slice, blocked set, or closure
// traversal are ever rebuilt per pass again (hundreds of allocations).
func TestTryExecuteScratchReuse(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		rep := stuckReplica(t, 256)
		ctx := noopCtx{}
		rep.tryExecute(ctx)
		allocs := testing.AllocsPerRun(20, func() { rep.tryExecute(ctx) })
		if allocs > 4 {
			t.Fatalf("steady-state tryExecute pass allocates %.0f times, want <= 4", allocs)
		}
	})
}

// executableReplica builds a replica with n committed, mutually independent
// entries (distinct keys, empty dependency sets) at slots >= 2 of space 0.
// Slot 1 is deliberately absent, so the execution mark never advances and
// the per-slot digest chain (a sha256 each) stays out of the measurement.
func executableReplica(tb testing.TB, n int) (*Replica, []*entry) {
	tb.Helper()
	rep, err := NewReplica(ReplicaConfig{Self: 0, N: 4, App: kvstore.New(), Auth: auth.Noop{}})
	if err != nil {
		tb.Fatal(err)
	}
	rep.RecordExecutions()
	entries := make([]*entry, n)
	for i := 0; i < n; i++ {
		inst := types.InstanceID{Space: 0, Slot: uint64(i + 2)}
		e := &entry{
			inst:   inst,
			cmd:    types.Command{Client: 1, Timestamp: uint64(i + 1), Op: types.OpPut, Key: fmt.Sprint(i)},
			deps:   types.NewInstanceSet(),
			seq:    1,
			status: StatusCommitted,
		}
		rep.log.put(e)
		rep.pendingExec[inst] = e
		entries[i] = e
	}
	return rep, entries
}

// rearm resets an executed backlog to committed so the same pass can run
// again: statuses back, pending set refilled, execution log truncated, and
// the exactly-once memo cleared (its contents would otherwise turn every
// re-run into pure memo hits). All of it is in-place map/slice reuse — no
// allocations — so it can sit inside an AllocsPerRun body.
func rearm(rep *Replica, entries []*entry) {
	for _, e := range entries {
		e.status = StatusCommitted
		rep.pendingExec[e.inst] = e
	}
	rep.execLog = rep.execLog[:0]
	clear(rep.executed)
}

// TestExecutePassScratchReuse pins the executing path: with the dependency
// graph and linearization scratch replica-owned and recycled, executing a
// 256-entry backlog of independent PUTs allocates almost nothing in steady
// state. nil PUT values keep the store's value copies out of the
// measurement.
func TestExecutePassScratchReuse(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		rep, entries := executableReplica(t, 256)
		ctx := noopCtx{}
		rep.tryExecute(ctx) // warm scratch, memo, and log capacity
		allocs := testing.AllocsPerRun(20, func() {
			rearm(rep, entries)
			rep.tryExecute(ctx)
		})
		if len(rep.execLog) != 256 {
			t.Fatalf("pass executed %d entries, want 256", len(rep.execLog))
		}
		if allocs > 4 {
			t.Fatalf("steady-state executing pass allocates %.0f times, want <= 4", allocs)
		}
	})
}

// BenchmarkExecutePass measures a full execution pass over a 256-entry
// backlog of independent commands. Each iteration re-arms the backlog in
// place.
func BenchmarkExecutePass(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		rep, entries := executableReplica(b, 256)
		ctx := noopCtx{}
		rep.tryExecute(ctx)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rearm(rep, entries)
			rep.tryExecute(ctx)
		}
	})
}
