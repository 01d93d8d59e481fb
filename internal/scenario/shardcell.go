package scenario

import (
	"fmt"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/proc"
	"ezbft/internal/shard"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// ShardCell is one sharded-deployment scenario: Shards independent
// consensus groups behind the consistent-hash router, with a network shape
// applied inside one group only (the victim shard). The other shards — and
// the cross-shard commit protocol spanning all of them — keep running
// through the fault, and the victim shard is carved out of the convergence
// demand until the shape heals: afterwards every shard must converge, the
// shape's isolated replica catching up by state transfer.
type ShardCell struct {
	Protocol engine.Protocol
	// Shards is the number of consensus groups (minimum 2 — a sharded cell
	// exists to fault one group while others run clean).
	Shards int
	// Shape interferes with VictimShard's group only.
	Shape       *Shape
	VictimShard int
	Batching    bool
	// Checkpointing must be on for shapes that fully isolate replicas
	// (Victims != nil): the victim shard's cut-off replica can only rejoin
	// its group through checkpoint-anchored state transfer.
	Checkpointing bool
}

// Name renders the cell's replayable identity.
func (c ShardCell) Name() string {
	shape := "clean"
	if c.Shape != nil {
		shape = fmt.Sprintf("%s@s%d", c.Shape.Name, c.VictimShard)
	}
	variant := "plain"
	switch {
	case c.Batching && c.Checkpointing:
		variant = "batch+ckpt"
	case c.Batching:
		variant = "batch"
	case c.Checkpointing:
		variant = "ckpt"
	}
	return fmt.Sprintf("%s/shards%d/%s/%s", c.Protocol, c.Shards, shape, variant)
}

// ShardResult is one sharded cell run's outcome.
type ShardResult struct {
	Cell       ShardCell
	Seed       int64
	Pass       bool
	Violations []string
	Completed  int
	Expected   int
	// TxnsCommitted and TxnsAborted partition the injected cross-shard
	// transactions by outcome; every transaction must land in one of them.
	TxnsCommitted int
	TxnsAborted   int
	// VictimCatchups counts state transfers installed inside the victim
	// shard's group — the proof that the shape genuinely carved replicas
	// out and recovery went through catch-up, not luck.
	VictimCatchups uint64
	VirtualTime    time.Duration
}

// String renders the replay line a failing test prints.
func (r *ShardResult) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
		for _, v := range r.Violations {
			status += "; " + v
		}
	}
	return fmt.Sprintf("shard cell %s seed %d: %s", r.Cell.Name(), r.Seed, status)
}

// keyOnShard deterministically probes base, base#0, base#1, ... for the
// first key the router places on shard s; every participant that probes the
// same base finds the same key.
func keyOnShard(r *shard.Router, s int, base string) string {
	if r.ShardOf(base) == s {
		return base
	}
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s#%d", base, i)
		if r.ShardOf(k) == s {
			return k
		}
	}
}

// shardHotGen is hotIncrGen restricted to one shard: INCRs hit the shard's
// probe of HotKey and private puts are suffix-probed onto the shard, so
// every command genuinely belongs to the group that orders it.
type shardHotGen struct {
	contention float64
	router     *shard.Router
	shard      int
	hotKey     string
}

func (g shardHotGen) Next(ctx proc.Context, client types.ClientID, seq uint64) types.Command {
	if ctx.Rand().Float64() < g.contention {
		return types.Command{Op: types.OpIncr, Key: g.hotKey}
	}
	base := fmt.Sprintf("c%03d:%04d", uint32(client)%1000, seq%10000)
	return types.Command{
		Op:    types.OpPut,
		Key:   keyOnShard(g.router, g.shard, base),
		Value: []byte(fmt.Sprintf("v%d", seq)),
	}
}

// RunShard executes one sharded cell under cfg's fixed seed: per-shard
// closed-loop workloads, cross-shard transactions injected both during the
// fault window and after the heal, and the full invariant sweep — liveness,
// per-shard exactly-once counters, transaction atomicity, lock hygiene, and
// per-shard digest convergence.
func RunShard(cell ShardCell, cfg Config) (*ShardResult, error) {
	cfg = cfg.withDefaults()
	if cell.Shards < 2 {
		cell.Shards = 2
	}
	if cell.VictimShard < 0 || cell.VictimShard >= cell.Shards {
		return nil, fmt.Errorf("shard scenario %s: victim shard %d out of range", cell.Name(), cell.VictimShard)
	}
	topo := wan.DeploymentA()
	regions := topo.Regions()
	n := len(regions)

	spec := bench.Spec{
		Protocol:       cell.Protocol,
		Topology:       topo,
		ReplicaRegions: regions,
		Primary:        0,
		Seed:           cfg.Seed,
	}
	if cell.Batching {
		spec.BatchSize = 4
	}
	if cell.Checkpointing {
		spec.CheckpointInterval = 8
	}

	router := shard.NewRouter(cell.Shards)
	recs := make([]*recorder, cell.Shards)
	for s := range recs {
		recs[s] = newRecorder()
	}
	drivers := make([][]*workload.ClosedLoop, cell.Shards)
	for s := range drivers {
		drivers[s] = make([]*workload.ClosedLoop, cfg.Clients)
	}
	// A generous virtual phase timeout: under a flapping shard the feeder
	// client's queue backs up behind slow-path commands, and a phase must
	// not be declared failed just because it sat in that queue. Aborting on
	// genuinely lost phases is the transaction deadline's job.
	ss := bench.ShardSpec{Base: spec, Shards: cell.Shards, PhaseTimeout: 10 * time.Second}
	for i := 0; i < cfg.Clients; i++ {
		i := i
		ss.Clients = append(ss.Clients, bench.ShardClientGroup{
			Region: regions[i%len(regions)],
			Count:  1,
			NewDriver: func(shardIdx, _ int) workload.Driver {
				d := &workload.ClosedLoop{
					Gen: shardHotGen{
						contention: cfg.Contention,
						router:     router,
						shard:      shardIdx,
						hotKey:     keyOnShard(router, shardIdx, HotKey),
					},
					Recorder:    recs[shardIdx],
					MaxRequests: cfg.Requests,
				}
				drivers[shardIdx][i] = d
				return &LateJoin{Inner: d, Delay: time.Duration(i) * cfg.JoinStagger}
			},
		})
	}

	cl, err := bench.BuildSharded(ss)
	if err != nil {
		return nil, fmt.Errorf("shard scenario %s: %w", cell.Name(), err)
	}
	victim := cl.Groups[cell.VictimShard]
	if cell.Shape != nil {
		env := ShapeEnv{N: n, HealAt: cfg.HealAt, Now: victim.RT.Now, Rand: victim.RT.Kernel().Rand()}
		victim.RT.SetFilter(Compose(cell.Shape.New(env)))
	}

	res := &ShardResult{Cell: cell, Seed: cfg.Seed, Expected: cell.Shards * cfg.Clients * int(cfg.Requests)}

	// Cross-shard transactions on dedicated counter keys, one per shard:
	// every committed transaction increments each key exactly once, so the
	// final counters must equal the commit count on every replica.
	ops := make([]shard.Op, cell.Shards)
	txnKeys := make([]string, cell.Shards)
	for s := range ops {
		txnKeys[s] = keyOnShard(router, s, "xshard:ctr")
		ops[s] = shard.Op{Op: types.OpIncr, Key: txnKeys[s]}
	}
	// Half the transactions run against the fault window — two-phase commit
	// across a degraded shard, submitted concurrently so they also contend
	// for the same locks, free to commit or cleanly abort. The other half
	// run sequentially over the healed network, where aborting would be a
	// failure (they conflict with nothing: each completes before the next
	// starts, and the workload never touches the transaction keys).
	const txnsPerWindow = 3
	var txns []*bench.Txn
	for j := 0; j < txnsPerWindow; j++ {
		t, err := cl.SubmitTxn(ops, 2*cfg.HealAt)
		if err != nil {
			return nil, fmt.Errorf("shard scenario %s: %w", cell.Name(), err)
		}
		txns = append(txns, t)
	}
	cl.Run(cfg.HealAt)
	// Drain the fault window's transaction backlog before the post-heal
	// batch, so its commit-or-fail verdict isn't muddied by lock conflicts
	// with stragglers.
	cl.RunUntil(func() bool { return cl.ActiveTxns() == 0 }, cfg.Deadline)
	var postHeal []*bench.Txn
	for j := 0; j < txnsPerWindow; j++ {
		t, err := cl.SubmitTxn(ops, cfg.Deadline-cl.Now())
		if err != nil {
			return nil, fmt.Errorf("shard scenario %s: %w", cell.Name(), err)
		}
		txns = append(txns, t)
		postHeal = append(postHeal, t)
		cl.RunUntil(t.Done, cfg.Deadline)
	}

	// Filler tail: push enough post-heal commands through every shard to
	// carry the next checkpoint past any instance a partition victim
	// missed — catch-up only triggers once a stable checkpoint forms above
	// the victim's gap, and the workload alone may stop just short of a
	// checkpoint boundary. One-phase single-shard transactions keep the
	// filler on the same feeder path as everything else.
	if cell.Checkpointing {
		for j := uint64(0); j < 2*spec.CheckpointInterval; j++ {
			for s := 0; s < cell.Shards; s++ {
				fill, err := cl.SubmitTxn([]shard.Op{{
					Op:    types.OpPut,
					Key:   keyOnShard(router, s, fmt.Sprintf("filler:%d", j)),
					Value: []byte("x"),
				}}, time.Minute)
				if err != nil {
					return nil, fmt.Errorf("shard scenario %s: filler: %w", cell.Name(), err)
				}
				cl.RunUntil(fill.Done, cfg.Deadline)
			}
		}
	}

	allDone := func() bool {
		for _, sd := range drivers {
			for _, d := range sd {
				if d.Done() < cfg.Requests {
					return false
				}
			}
		}
		return cl.ActiveTxns() == 0
	}
	live := cl.RunUntil(allDone, cfg.Deadline)
	cl.Run(cl.Now() + cfg.Settle)

	// Count outcomes; every transaction must have resolved, and the
	// post-heal batch must have committed.
	for i, t := range txns {
		switch {
		case !t.Done():
			res.Violations = append(res.Violations, fmt.Sprintf("txn %d unresolved", i))
		case t.Outcome() == nil:
			res.TxnsCommitted++
		default:
			res.TxnsAborted++
		}
	}
	for i, t := range postHeal {
		if t.Done() && t.Outcome() != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("post-heal txn %d aborted on a clean network: %v", txnsPerWindow+i, t.Outcome()))
		}
	}

	// The victim shard is carved out of the convergence demand until its
	// shape heals; the run only checks afterwards, when every replica of
	// every shard must agree — the shape's fully isolated replicas closing
	// the gap by state transfer (hence the checkpointing requirement).
	converged := func() bool {
		for s := range cl.Apps {
			ref := cl.Apps[s][0].Digest()
			for _, app := range cl.Apps[s][1:] {
				if app.Digest() != ref {
					return false
				}
			}
		}
		return true
	}
	if !cl.RunUntil(converged, cl.Now()+cfg.ConvergeWait) {
		for s := range cl.Apps {
			line := fmt.Sprintf("shard %d digests:", s)
			for i, app := range cl.Apps[s] {
				line += fmt.Sprintf(" r%d=%s", i, app.Digest().String()[:8])
			}
			res.Violations = append(res.Violations, line)
		}
	}
	if !live && !allDone() {
		for s, sd := range drivers {
			for i, d := range sd {
				if d.Done() < cfg.Requests {
					res.Violations = append(res.Violations,
						fmt.Sprintf("liveness: shard %d client %d completed %d/%d", s, i, d.Done(), cfg.Requests))
				}
			}
		}
		if a := cl.ActiveTxns(); a > 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("liveness: %d transactions still active", a))
		}
	}

	// Exactly-once, per shard and per replica: the shard's hot counter must
	// equal its completed INCRs, the cross-shard counter must equal the
	// commit count, and no replica may hold a lock once the run drains.
	counter := func(app *shard.App, key string) uint64 {
		store, ok := app.Inner().(*kvstore.Store)
		if !ok {
			return 0
		}
		v, ok := store.Get(key)
		if !ok {
			return 0
		}
		return kvstore.Counter(v)
	}
	for s := range cl.Apps {
		hotKey := keyOnShard(router, s, HotKey)
		for i, app := range cl.Apps[s] {
			if got := counter(app, hotKey); got != uint64(recs[s].incrs) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("shard %d replica %d: hot counter %d != %d completed INCRs", s, i, got, recs[s].incrs))
			}
			if got := counter(app, txnKeys[s]); got != uint64(res.TxnsCommitted) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("shard %d replica %d: txn counter %d != %d committed transactions", s, i, got, res.TxnsCommitted))
			}
			if locked := app.LockedKeys(); len(locked) != 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("shard %d replica %d: stale locks %v", s, i, locked))
			}
		}
		res.Completed += recs[s].count
	}

	// The carve-out must be real: when the shape fully isolates replicas,
	// the victim group must show installed state transfers (the isolated
	// replica had a gap only catch-up could close). A zero here means the
	// fault never bit and the cell proves nothing.
	if cell.Shape != nil && cell.Shape.Victims != nil {
		switch {
		case len(victim.EZReplicas) == n:
			for _, rep := range victim.EZReplicas {
				res.VictimCatchups += rep.Stats().CatchupsInstalled
			}
		case len(victim.PBReplicas) == n:
			for _, rep := range victim.PBReplicas {
				res.VictimCatchups += rep.Stats().CatchupsInstalled
			}
		case len(victim.ZYReplicas) == n:
			for _, rep := range victim.ZYReplicas {
				res.VictimCatchups += rep.Stats().CatchupsInstalled
			}
		case len(victim.FBReplicas) == n:
			for _, rep := range victim.FBReplicas {
				res.VictimCatchups += rep.Stats().CatchupsInstalled
			}
		}
		if res.VictimCatchups == 0 {
			res.Violations = append(res.Violations, "victim shard installed no state transfers: the shape never carved anyone out")
		}
	}

	res.VirtualTime = cl.Now()
	res.Pass = len(res.Violations) == 0
	return res, nil
}

// ShardSmokeCells is the sharded slice of the CI gate: two 2-shard cells
// with a flapping partition inside one shard's group — once against the
// coordinator-side shard (shard 0, lowest touched, which coordinates every
// cross-shard transaction here) and once against a participant shard —
// verified to pass deterministically.
func ShardSmokeCells() []ShardCell {
	return []ShardCell{
		{Protocol: engine.EZBFT, Shards: 2, Shape: ShapeByName("flapping-partition"), VictimShard: 0, Batching: true, Checkpointing: true},
		{Protocol: engine.PBFT, Shards: 2, Shape: ShapeByName("flapping-partition"), VictimShard: 1, Batching: true, Checkpointing: true},
	}
}
