package core

import (
	"sync"

	"ezbft/internal/graph"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// This file implements the deterministic parallel executor: final execution
// of linearized closures scheduled as a level-ordered DAG over ExecWorkers
// goroutines, instead of the serial walk in exec.go. It is enabled only when
// ExecWorkers > 1 AND the application implements
// types.ConcurrentApplication; otherwise replicas keep the exact serial
// path, untouched.
//
// The scheduling granule a pass hands the executor is a batch: the
// consecutive executable closures of one tryExecute pass, accumulated via
// addClosure and run together by flush. Batching matters because distinct
// closures are dependency-independent by construction — at low contention a
// backlog is mostly small closures, and executing them one at a time would
// leave the workers idle; scheduled together their units share levels.
// Closures may share entries (two roots reaching one dependency): the first
// closure schedules the shared entry, later closures exclude it exactly
// where the serial walk would see it StatusExecuted.
//
// # Determinism argument
//
// Every observable of the serial path — final results, the executed memo,
// executedTs watermarks, the order the execution observer sees, entry
// statuses, checkpoint execution marks, and commit-reply send order
// (including simulated virtual-time charges) — is reproduced
// byte-identically at any worker count. The schedule is split into three
// phases per batch:
//
//  1. Resolution (serial). Closure by closure, the linearized order from
//     graph.Linearize is walked exactly as the serial path would, and each
//     command is resolved to an action: no-op, memo hit (exactly-once
//     duplicate), base-timestamp skip (state-transfer snapshot already
//     reflects it), or execute. The batch-local `claimed` set predicts
//     in-batch memo writes: a duplicate of a command that an earlier
//     position of the batch will execute resolves to a memo hit, exactly as
//     it would serially. Only this phase consults replica state, so
//     resolution is independent of scheduling.
//
//  2. Execution (parallel). Only commands resolved to "execute" reach the
//     application, grouped into dependency levels: each SCC of the closure
//     (one "unit") sits one level above the deepest unit it depends on.
//     Units on the same level form an antichain of the condensation — no
//     dependency path connects them. As a second, independent guard (the
//     dependency sets are Byzantine-influenced inputs; a lying participant
//     can under-approximate them), levels are additionally raised by
//     declared footprints: two units whose commands interfere per
//     types.Command.Interferes (overlapping keys, not commutative) are
//     forced onto distinct levels even if no dependency edge connects them.
//     Units that share a level therefore have disjoint footprints or
//     commute, which is exactly what types.ConcurrentApplication requires
//     for concurrent PromoteFinal calls to be order-independent. A worker
//     owns each unit it claims end to end, applying the unit's commands
//     sequentially in serial order (SCC members are mutually dependent, so
//     they interfere and must never run concurrently with each other);
//     workers do nothing but call PromoteFinal and store results in the
//     commands' slots. Levels run in ascending order with a full join
//     between levels and after the last one — no worker outlives the
//     handler invocation.
//
//  3. Bookkeeping (serial). The batch's item list is walked again in the
//     exact serial order: virtual execution costs are charged (at the point
//     the serial path would charge them, which keeps simulated timestamps —
//     and so every simulated figure — identical at any worker count), memo
//     entries are written, executedTs, results and the execution observer
//     are updated via the same recordFinal/finishEntry helpers the serial
//     path uses, and commit replies are sent in the same sorted order.
//
// Memo reads in phase 3 are always satisfied: a memo-hit consumer appears
// after its producer in the serial order (phase 1 claims in that order), and
// phase 3 performs the producer's memo write before reaching the consumer.
//
// Batch boundaries never reorder Context effects relative to the serial
// walk: tryExecute flushes the accumulated batch before arming any
// dependency-wait timer, so the sequence of charges, sends, and timer
// operations a pass produces is identical to the serial path's.
type parExecutor struct {
	workers int
	app     types.ConcurrentApplication

	// Per-batch scratch, reused across batches. A batch accumulates the
	// consecutive executable closures of one tryExecute pass (addClosure)
	// and runs them through phases 2 and 3 together (flush): independent
	// closures have no dependency edges between them, so their units share
	// levels — that cross-closure width is where low-contention workloads
	// get their parallelism. The accumulation never reorders context
	// effects: flush runs before anything else in the pass touches the
	// Context (see tryExecute), so charges, sends, and timer arming happen
	// in the exact serial sequence.
	items       []execItem
	units       []execUnit
	unitOf      map[types.InstanceID]int
	keyLvl      map[types.Key][nOpClasses]int
	claimed     map[cmdKey]struct{}
	byLevel     [][]int32 // unit indices per level (index = level-1)
	maxLvl      int
	serialFloor int // raised past units holding unknown-footprint commands
}

// execAction is a command's resolved fate for one pass.
type execAction uint8

const (
	actExec execAction = iota // run PromoteFinal on a worker
	actNoop                   // distinguished no-op: Result{OK: true}
	actMemo                   // exactly-once duplicate: reuse the memoized result
	actBase                   // settled (snapshot-covered or memo released): skip
)

// execItem is one command of the pass list, in serial linear order.
type execItem struct {
	e    *entry
	cmd  types.Command
	fp   []types.Key // declared footprint (actExec only)
	pos  int         // batch position within e
	unit int32       // index into units
	act  execAction
	last bool // final command of its entry: finishEntry after bookkeeping
	res  types.Result
}

// execUnit is one SCC of the closure, the scheduling granule: a worker owns
// the whole unit and applies its commands sequentially in serial order (SCC
// members are mutually dependent — they interfere by construction — so they
// must never run concurrently with each other). Parallelism is across units
// of the same level, which are interference-free by the phase-1 raising.
type execUnit struct {
	level      int
	start, end int32 // the unit's item range within items
}

// opClass buckets operations for footprint interference tracking; two
// commands on a shared key may share a level only if their classes do not
// interfere (see opClassesInterfere, which mirrors types.Command.Interferes
// restricted to a common key).
const (
	opClassGet = iota
	opClassPut
	opClassIncr
	opClassOther
	nOpClasses
)

func opClassOf(op types.Op) int {
	switch op {
	case types.OpGet:
		return opClassGet
	case types.OpPut:
		return opClassPut
	case types.OpIncr:
		return opClassIncr
	default:
		return opClassOther
	}
}

// opClassesInterfere mirrors types.Command.Interferes for two non-noop
// commands on the same key: GETs commute with GETs and INCRs with INCRs;
// everything else interferes (TestOpClassesMatchInterferes pins the
// equivalence).
func opClassesInterfere(a, b int) bool {
	if a == b && (a == opClassGet || a == opClassIncr) {
		return false
	}
	return true
}

func newParExecutor(workers int, app types.ConcurrentApplication) *parExecutor {
	return &parExecutor{
		workers:     workers,
		app:         app,
		unitOf:      make(map[types.InstanceID]int),
		keyLvl:      make(map[types.Key][nOpClasses]int),
		claimed:     make(map[cmdKey]struct{}),
		serialFloor: 1,
	}
}

// claimedInst reports whether an instance was already scheduled by an
// earlier closure of the current batch (its entry is still StatusCommitted
// because bookkeeping is deferred to flush, but it must not be scheduled
// again — the serial path would see it StatusExecuted).
func (x *parExecutor) claimedInst(inst types.InstanceID) bool {
	_, ok := x.unitOf[inst]
	return ok
}

// addClosure runs phase 1 — serial resolution and level assignment — for
// one linearized closure, appending its units and items to the current
// batch. order/spans come from the replica's dependency graph
// (graph.Linearize) and are consumed before the graph is touched again.
// Entries claimed by an earlier closure of the batch were excluded from the
// graph by the caller; dependency edges onto them still raise levels via
// unitOf, which spans the whole batch.
func (x *parExecutor) addClosure(r *Replica, order []types.InstanceID, spans []graph.Span) {
	for _, sp := range spans {
		unitIdx := len(x.units)
		itemStart := len(x.items)
		lvl := x.serialFloor
		unknownFootprint := false
		for _, inst := range order[sp.Start:sp.End] {
			e := r.log.get(inst)
			if e == nil || e.status != StatusCommitted {
				continue // same guard as the serial walk
			}
			// Dependency raising: one level above every earlier unit a
			// member depends on. Linearize's inverse topological order
			// guarantees cross-unit dependencies point to earlier units;
			// same-unit (same-SCC) edges don't raise.
			for _, dep := range e.deps {
				if u, ok := x.unitOf[dep]; ok && u != unitIdx && x.units[u].level >= lvl {
					lvl = x.units[u].level + 1
				}
			}
			x.unitOf[inst] = unitIdx
			for i := 0; i < e.nCmds(); i++ {
				cmd := e.cmdAt(i)
				it := execItem{e: e, cmd: cmd, pos: i, unit: int32(unitIdx)}
				key := cmdKey{cmd.Client, cmd.Timestamp}
				_, claimed := x.claimed[key]
				_, memoized := r.executed[key]
				switch {
				case cmd.IsNoop():
					it.act = actNoop
				case claimed || memoized:
					it.act = actMemo
				case r.settled[cmd.Client].has(cmd.Timestamp):
					it.act = actBase // writes no memo serially either
				default:
					it.act = actExec
					x.claimed[key] = struct{}{}
					it.fp = x.app.Footprint(cmd)
					if len(it.fp) == 0 {
						unknownFootprint = true
					} else {
						// Footprint raising: above every earlier unit that
						// touched a shared key with an interfering op class.
						c := opClassOf(cmd.Op)
						for _, k := range it.fp {
							kl := x.keyLvl[k]
							for oc := 0; oc < nOpClasses; oc++ {
								if kl[oc] >= lvl && opClassesInterfere(c, oc) {
									lvl = kl[oc] + 1
								}
							}
						}
					}
				}
				x.items = append(x.items, it)
			}
			x.items[len(x.items)-1].last = true
		}
		if len(x.items) == itemStart {
			continue // every member skipped: no unit to schedule
		}
		if unknownFootprint {
			// A command with an undeclared footprint may touch anything:
			// serialize its unit against every earlier and later unit.
			if x.maxLvl >= lvl {
				lvl = x.maxLvl + 1
			}
			x.serialFloor = lvl + 1
		}
		x.units = append(x.units, execUnit{level: lvl, start: int32(itemStart), end: int32(len(x.items))})
		if lvl > x.maxLvl {
			x.maxLvl = lvl
		}
		// Publish the unit's footprint at its final level.
		for idx := itemStart; idx < len(x.items); idx++ {
			it := &x.items[idx]
			if it.act != actExec {
				continue
			}
			c := opClassOf(it.cmd.Op)
			for _, k := range it.fp {
				kl := x.keyLvl[k]
				if kl[c] < lvl {
					kl[c] = lvl
					x.keyLvl[k] = kl
				}
			}
		}
	}
}

// flush runs phases 2 and 3 over the accumulated batch and resets the
// executor for the next one. A no-op on an empty batch.
func (x *parExecutor) flush(ctx proc.Context, r *Replica) {
	if len(x.items) == 0 {
		return
	}

	// --- Phase 2: parallel level execution ---
	maxLvl := x.maxLvl
	if cap(x.byLevel) < maxLvl {
		x.byLevel = make([][]int32, maxLvl)
	}
	x.byLevel = x.byLevel[:maxLvl]
	for l := range x.byLevel {
		x.byLevel[l] = x.byLevel[l][:0]
	}
	for u := range x.units {
		x.byLevel[x.units[u].level-1] = append(x.byLevel[x.units[u].level-1], int32(u))
	}
	for _, bucket := range x.byLevel {
		x.runLevel(bucket)
		r.stats.ExecLevels++
		if len(bucket) > 1 {
			for _, u := range bucket {
				for idx := x.units[u].start; idx < x.units[u].end; idx++ {
					if x.items[idx].act == actExec {
						r.stats.ParallelCmds++
					}
				}
			}
		}
	}
	r.stats.ParallelClosures++

	// --- Phase 3: serial bookkeeping in exact serial order ---
	for idx := range x.items {
		it := &x.items[idx]
		var res types.Result
		switch it.act {
		case actNoop, actBase:
			res = types.Result{OK: true}
		case actMemo:
			// Present by construction: the producer precedes this item in
			// serial order (phase 1 claims in that order) and wrote the memo
			// earlier in this loop, or it predates the pass entirely.
			res = r.executed[cmdKey{it.cmd.Client, it.cmd.Timestamp}]
		case actExec:
			r.cfg.Costs.ChargeExecute(ctx)
			res = it.res
			r.executed[cmdKey{it.cmd.Client, it.cmd.Timestamp}] = res
		}
		r.recordFinal(it.e, it.pos, it.cmd, res)
		if it.last {
			r.finishEntry(ctx, it.e)
		}
	}

	// Reset for the next batch. clear(items) also drops entry/footprint
	// references, so an idle replica doesn't pin freed log entries through
	// the scratch's capacity.
	clear(x.items)
	x.items = x.items[:0]
	x.units = x.units[:0]
	clear(x.unitOf)
	clear(x.keyLvl)
	clear(x.claimed)
	x.maxLvl = 0
	x.serialFloor = 1
}

// runLevel applies every unit of one level, fanning units out across the
// worker budget. A worker owns each unit it claims end to end, applying the
// unit's executable commands sequentially in serial order (SCC members
// interfere with each other and must not run concurrently); commands store
// results into their own item slots. The full join before returning is what
// confines all concurrency to this handler invocation.
func (x *parExecutor) runLevel(bucket []int32) {
	n := len(bucket)
	switch {
	case n == 0:
		return
	case n == 1 || x.workers <= 1:
		for _, u := range bucket {
			x.runUnit(u)
		}
		return
	}
	w := x.workers
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for j := 0; j < w; j++ {
		go func(j int) {
			defer wg.Done()
			for k := j; k < n; k += w {
				x.runUnit(bucket[k])
			}
		}(j)
	}
	wg.Wait()
}

// runUnit applies one unit's executable commands in serial order.
func (x *parExecutor) runUnit(u int32) {
	for idx := x.units[u].start; idx < x.units[u].end; idx++ {
		it := &x.items[idx]
		if it.act == actExec {
			it.res = x.app.PromoteFinal(it.cmd)
		}
	}
}
