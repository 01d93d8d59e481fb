package core

import (
	"slices"

	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// tryExecute runs the paper's execution protocol (§IV-B) over every
// committed-but-unexecuted entry whose dependency closure is fully
// committed:
//
//  1. wait for the command and its (transitive) dependencies to be
//     committed;
//  2. build the dependency graph;
//  3. find strongly connected components, sort them topologically;
//  4. execute components in inverse topological order, commands within a
//     component in sequence-number order, ties broken by replica ID.
//
// Final execution runs on the previous final version of the state
// (PromoteFinal); afterwards the speculative overlay is discarded, since
// the final state supersedes it.
func (r *Replica) tryExecute(ctx proc.Context) {
	if len(r.pendingExec) == 0 {
		return
	}
	// Deterministic iteration over pending entries. The pass-local scratch
	// (the sorted pending slice and the blocked set) lives on the replica
	// and is recycled across passes: under contention tryExecute runs once
	// per commit arrival over a large backlog, and rebuilding both
	// allocations every pass dominated the execution path's garbage (see
	// BenchmarkTryExecuteContended).
	pending := r.execPending[:0]
	for inst := range r.pendingExec {
		pending = append(pending, inst)
	}
	slices.SortFunc(pending, types.InstanceID.Compare)
	r.execPending = pending[:0]

	// blocked caches instances found unexecutable during this pass, so a
	// large backlog of entries stuck behind the same dependency is checked
	// once rather than once per pending entry (contended workloads create
	// exactly that shape).
	blocked := r.execBlocked
	clear(blocked)
	executedAny := false
	for _, inst := range pending {
		e, ok := r.pendingExec[inst]
		if !ok {
			continue // executed as part of an earlier closure this round
		}
		if blocked[inst] {
			continue
		}
		closure, blockers := r.depClosure(e, blocked)
		if len(blockers) > 0 {
			// A committed command is stuck behind uncommitted dependencies.
			// If a dependency's command-leader never drives it to commit,
			// the only recovery is an owner change for that instance space
			// (which either restores the entry via Condition 1/2 or
			// finalizes it as a no-op) — arm the dependency-wait timers.
			// Every closure member is equally stuck this pass.
			for _, ce := range closure {
				blocked[ce.inst] = true
			}
			slices.SortFunc(blockers, types.InstanceID.Compare)
			r.armDepWait(ctx, blockers)
			continue
		}
		r.executeClosure(ctx, closure)
		executedAny = true
	}
	if executedAny {
		// The final state advanced; speculative effects layered on the old
		// final state are stale.
		r.cfg.App.Rollback()
	}
}

// depClosure collects the committed, unexecuted entries reachable from e
// through dependency edges. It returns the instances blocking execution
// (uncommitted reachable dependencies), if any (the paper: "wait for the
// dependencies to be committed and enqueued for final execution as well").
// Dependencies in frozen spaces that the owner change did not recover can
// never commit; they are deterministically treated as executed no-ops
// (every replica applies the same NEWOWNER safe set, so the skip set is
// identical everywhere).
//
// Closure membership and blocker identity do not depend on traversal order,
// and the execution order is derived by the dependency graph afterwards.
// Instances in `blocked` are known-stuck from earlier in the same pass.
//
// The traversal scratch (seen set, work stack, closure and blocker slices)
// is replica-owned and recycled call to call; the returned slices alias it
// and are only valid until the next depClosure call — both callers consume
// them immediately.
func (r *Replica) depClosure(e *entry, blocked map[types.InstanceID]bool) (closure []*entry, blockers []types.InstanceID) {
	if r.execSeen == nil {
		r.execSeen = make(map[types.InstanceID]bool)
	}
	seen := r.execSeen
	clear(seen)
	seen[e.inst] = true
	stack := append(r.execStack[:0], e)
	closure = append(r.execClosure[:0], e)
	blockers = r.execBlockers[:0]
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, dep := range cur.deps {
			if seen[dep] {
				continue
			}
			seen[dep] = true
			if blocked[dep] {
				blockers = append(blockers, dep)
				continue
			}
			de := r.log.get(dep)
			if de == nil || de.status < StatusCommitted {
				dsp := r.log.space(dep.Space)
				if dsp.frozen {
					continue // unrecovered entry in a frozen space: no-op
				}
				if dep.Slot <= dsp.truncated {
					continue // below the truncation point: executed and freed
				}
				blockers = append(blockers, dep)
				continue
			}
			if de.status == StatusExecuted {
				continue // already ordered before everything pending
			}
			closure = append(closure, de)
			stack = append(stack, de)
		}
	}
	r.execStack = stack[:0]
	r.execClosure = closure
	r.execBlockers = blockers
	return closure, blockers
}

// armDepWait starts the dependency-wait timer for each blocking instance:
// if the dependency is still uncommitted when the timer fires, an owner
// change is initiated for its space.
func (r *Replica) armDepWait(ctx proc.Context, blockers []types.InstanceID) {
	for _, dep := range blockers {
		if r.depWait[dep] {
			continue
		}
		r.depWait[dep] = true
		dep := dep
		r.AfterTimer(ctx, r.cfg.DepWaitTimeout, func(ctx proc.Context) {
			delete(r.depWait, dep)
			if dep.Slot <= r.log.space(dep.Space).truncated {
				return // executed and truncated by a stable checkpoint meanwhile
			}
			de := r.log.get(dep)
			if de != nil && de.status >= StatusCommitted {
				return // committed in the meantime
			}
			if r.log.space(dep.Space).frozen {
				r.tryExecute(ctx) // frozen while waiting: no-op rule applies
				return
			}
			r.initiateOwnerChange(ctx, r.owners[dep.Space].OwnerOf(r.n))
		})
	}
}

// executeClosure linearizes one complete closure and executes it in that
// order. The dependency graph is replica-owned scratch, Reset and refilled
// per closure (building a fresh graph per closure used to dominate the
// execution path's allocations); it borrows the entries' committed
// dependency sets, which are not mutated while the closure executes.
func (r *Replica) executeClosure(ctx proc.Context, closure []*entry) {
	g := r.execGraph
	g.Reset()
	for _, e := range closure {
		g.Add(e.inst, e.seq, e.deps)
	}
	order, _ := g.Linearize()
	for _, inst := range order {
		e := r.log.get(inst)
		if e == nil || e.status != StatusCommitted {
			continue
		}
		r.finalExecute(ctx, e)
	}
}

// finalExecute runs one entry's commands — the whole batch, in batch
// order — on the final state with exactly-once semantics: if a client
// request was already executed under a different instance (a re-proposal
// after an owner change, or a duplicate landing in two different batches),
// the memoized result is reused instead of re-executing. It then marks the
// entry executed and sends the slow-path commit replies it owes.
func (r *Replica) finalExecute(ctx proc.Context, e *entry) {
	for i := 0; i < e.nCmds(); i++ {
		cmd := e.cmdAt(i)
		key := cmdKey{cmd.Client, cmd.Timestamp}
		var res types.Result
		if cmd.IsNoop() {
			res = types.Result{OK: true}
		} else if memo, done := r.executed[key]; done {
			res = memo
		} else if r.settled[cmd.Client].has(cmd.Timestamp) {
			// A duplicate instance of a command the final state already
			// reflects — through an installed state-transfer snapshot, or
			// executed here so long ago that its memo has been released:
			// applying it again would double-execute.
			res = types.Result{OK: true}
		} else {
			r.cfg.Costs.ChargeExecute(ctx)
			res = r.cfg.App.PromoteFinal(cmd)
			r.executed[key] = res
		}
		if !cmd.IsNoop() && cmd.Timestamp > r.executedTs[cmd.Client] {
			r.executedTs[cmd.Client] = cmd.Timestamp
		}
		e.setFinalResult(i, res)
		if r.execObserver != nil {
			r.execObserver(ExecRecord{Inst: e.inst, Pos: i, Cmd: cmd, Result: res})
		}
		r.stats.FinalExecutions++
	}
	e.status = StatusExecuted
	delete(r.pendingExec, e.inst)
	// Durability point: the execution (and its executed-timestamp
	// increments) must survive a crash before replies reveal it.
	r.walExec(e)
	// The mark advance may complete a stable checkpoint that truncates e
	// and recycles it, so the replies e owes are answered from a copy.
	var owed entry
	if e.commitReplyTo != nil {
		owed, e.commitReplyTo = *e, nil
	}
	r.advanceExecMark(ctx, e.inst.Space)
	if owed.commitReplyTo != nil {
		// Sorted by position: the send order is deterministic, which keeps
		// simulations replayable.
		for _, rt := range owed.commitReplyTo.list {
			r.sendCommitReply(ctx, &owed, int(rt.idx), rt.client)
		}
	}
}

// RecordExecutions makes the replica keep a record of every command it
// finally executes from now on, for ExecutedLog. Test seam (test clusters,
// ExecHarness): a replica nobody called it on records nothing, because a
// log of everything ever executed is unbounded state no protocol step
// reads.
func (r *Replica) RecordExecutions() {
	r.execObserver = func(rec ExecRecord) { r.execLog = append(r.execLog, rec) }
}

// ExecutedLog returns the sequence of finally executed commands with their
// instances, in execution order, as far as RecordExecutions had them
// recorded (empty on a replica built for running). Consistency checks
// compare these across replicas.
func (r *Replica) ExecutedLog() []ExecRecord { return append([]ExecRecord(nil), r.execLog...) }

// ExecRecord is one finally executed command.
type ExecRecord struct {
	Inst   types.InstanceID
	Pos    int // position within the instance's batch (0 when unbatched)
	Cmd    types.Command
	Result types.Result
}

// CommitCert is one committed instance's agreed ordering attributes.
// Inspection helper: the scenario harness compares certificates across
// replicas — two correct replicas committing the same instance with
// different dependency sets or sequence numbers is a safety violation.
type CommitCert struct {
	Inst      types.InstanceID
	Deps      types.InstanceSet
	Seq       types.SeqNumber
	CmdDigest types.Digest
}

// CommittedCertsShared returns the certificate of every retained instance
// that reached committed (or executed) status, in no particular order.
// Truncated slots are absent; callers intersect across replicas. Deps alias
// the live log and must only be read, and only before the replica processes
// further messages: the scenario matrix compares certificates across every
// replica of every cell each run, where cloning them dominated the check's
// cost.
func (r *Replica) CommittedCertsShared() []CommitCert {
	total := 0
	for i := 0; i < r.n; i++ {
		total += len(r.log.space(types.ReplicaID(i)).entries)
	}
	out := make([]CommitCert, 0, total)
	for i := 0; i < r.n; i++ {
		sp := r.log.space(types.ReplicaID(i))
		for _, e := range sp.entries {
			if e.status < StatusCommitted {
				continue
			}
			out = append(out, CommitCert{
				Inst:      e.inst,
				Deps:      e.deps,
				Seq:       e.seq,
				CmdDigest: e.cmdDigest,
			})
		}
	}
	return out
}
