package scenario

import (
	"fmt"
	"strings"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/bench"
	"ezbft/internal/core"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/store"
	"ezbft/internal/types"
	"ezbft/internal/wan"
	"ezbft/internal/workload"
)

// HotKey is the contended counter key the exactly-once invariant reads.
const HotKey = "hot:ctr"

// Cell is one scenario-matrix configuration: a protocol under one
// Byzantine strategy (nil = all replicas honest) and one network shape
// (nil = clean network), with batching and checkpointing toggled.
type Cell struct {
	Protocol      engine.Protocol
	Strategy      *Strategy
	Shape         *Shape
	Batching      bool
	Checkpointing bool
	// Restart enables the crash-restart fault: replicas run over a durable
	// store (memory backend), one replica is hard-killed mid-workload,
	// stays down for Config.Downtime, and is rebuilt from its store with a
	// fresh application. Every invariant must still hold, and for ezBFT
	// the restarted replica must recover its executed prefix locally —
	// wholesale state transfers after the restart are a violation.
	Restart bool
	// XFail documents a known deficiency: the cell is expected to fail
	// invariant checking for the stated reason. An expected failure does
	// not fail the matrix (it renders as "xfail"), but an unexpected PASS
	// renders as "XPASS" so a fixed deficiency gets noticed and promoted.
	XFail string
}

// Name renders the cell's replayable identity.
func (c Cell) Name() string {
	strat, shape := "honest", "clean"
	if c.Strategy != nil {
		strat = c.Strategy.Name
	}
	if c.Shape != nil {
		shape = c.Shape.Name
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
	if c.Restart {
		variant += "+restart"
	}
	return fmt.Sprintf("%s/%s/%s/%s", c.Protocol, strat, shape, variant)
}

// Config tunes one cell run. Zero values select the defaults.
type Config struct {
	// Seed drives the whole simulation; a failure replays from it.
	Seed int64
	// Clients is the number of closed-loop clients (round-robin across
	// the topology's regions).
	Clients int
	// Requests per client.
	Requests uint64
	// Contention is the fraction of requests doing INCR on HotKey; the
	// rest put private keys.
	Contention float64
	// JoinStagger delays client i's start by i*JoinStagger (join churn).
	JoinStagger time.Duration
	// HealAt is when network shapes stop interfering.
	HealAt time.Duration
	// Deadline bounds the liveness wait (virtual time).
	Deadline time.Duration
	// Settle drains in-flight traffic after the workload completes.
	Settle time.Duration
	// ConvergeWait bounds the extra wait for digest convergence.
	ConvergeWait time.Duration
	// Downtime is how long a Restart cell's victim stays crashed before it
	// is rebuilt from its durable store.
	Downtime time.Duration
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.Requests == 0 {
		c.Requests = 8
	}
	if c.Contention == 0 {
		c.Contention = 0.5
	}
	if c.JoinStagger == 0 {
		c.JoinStagger = 300 * time.Millisecond
	}
	if c.HealAt == 0 {
		// Early enough that a healthy slice of the workload runs after the
		// heal: post-heal traffic is what drives checkpoint stabilization
		// and state-transfer catch-up for partition victims.
		c.HealAt = 3 * time.Second
	}
	if c.Deadline == 0 {
		c.Deadline = 300 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = 5 * time.Second
	}
	if c.ConvergeWait == 0 {
		c.ConvergeWait = 60 * time.Second
	}
	if c.Downtime == 0 {
		c.Downtime = 2 * time.Second
	}
	return c
}

// Result is one cell run's outcome.
type Result struct {
	Cell        Cell
	Seed        int64
	Pass        bool
	Violations  []string
	Completed   int
	Expected    int
	Mean        time.Duration
	POMs        uint64
	VirtualTime time.Duration
	// CatchupInstalls and CatchupMismatches sum the correct replicas'
	// state-transfer telemetry: transfers installed, and responders
	// convicted of disagreeing with the installed f+1 majority
	// (cross-validation's lie detector).
	CatchupInstalls   uint64
	CatchupMismatches uint64
	// ViewChanges sums the views the correct replicas of a sequenced
	// protocol entered through a NEW-VIEW.
	ViewChanges uint64
	// SlowTimeouts and SilentSkips sum the clients' counters of the same
	// names: requests that waited out the slow-path timer, and slow-path
	// commits sent without that wait (engine.ReplyWatch).
	SlowTimeouts uint64
	SilentSkips  uint64
}

// String renders the replay line a failing test prints.
func (r *Result) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL " + strings.Join(r.Violations, "; ")
		if r.Cell.XFail != "" {
			status = "XFAIL (" + r.Cell.XFail + ") " + strings.Join(r.Violations, "; ")
		}
	}
	return fmt.Sprintf("cell %s seed %d: %s", r.Cell.Name(), r.Seed, status)
}

// hotIncrGen issues INCRs on HotKey with probability Contention and
// private puts otherwise.
type hotIncrGen struct {
	Contention float64
}

func (g hotIncrGen) Next(ctx proc.Context, client types.ClientID, seq uint64) types.Command {
	if ctx.Rand().Float64() < g.Contention {
		return types.Command{Op: types.OpIncr, Key: HotKey}
	}
	return types.Command{
		Op:    types.OpPut,
		Key:   fmt.Sprintf("c%03d:%04d", uint32(client)%1000, seq%10000),
		Value: []byte(fmt.Sprintf("v%d", seq)),
	}
}

// recorder tallies completions for the latency and exactly-once checks,
// and each completed command's digest for the issued-command check.
type recorder struct {
	count  int
	incrs  int
	total  time.Duration
	issued map[execKey]types.Digest
}

func (r *recorder) Record(_ types.ClientID, c workload.Completion) {
	r.count++
	if c.Cmd.Op == types.OpIncr {
		r.incrs++
	}
	r.total += c.Latency
	r.issued[execKey{client: c.Cmd.Client, ts: c.Cmd.Timestamp}] = c.Cmd.Digest()
}

func newRecorder() *recorder { return &recorder{issued: make(map[execKey]types.Digest)} }

// Run executes one cell under cfg's fixed seed and checks every
// invariant. The Byzantine strategy (if any) compromises replica 0 — the
// primary of the primary-based protocols, and the command-leader of the
// clients in its region under ezBFT.
func Run(cell Cell, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	topo := wan.DeploymentA()
	regions := topo.Regions()
	n := len(regions)
	const byzID = types.ReplicaID(0)

	spec := bench.Spec{
		Protocol:       cell.Protocol,
		Topology:       topo,
		ReplicaRegions: regions,
		Primary:        0,
		Seed:           cfg.Seed,
		NewApp:         func() types.Application { return NewJournal() },
	}
	if cell.Restart {
		// A crash-restart is only meaningful over a durable store; the
		// memory backend has the exact record/snapshot semantics of disk
		// without I/O in the hot loop of a 300-cell matrix. The retention
		// window keeps peers' suffixes fetchable across the victim's
		// downtime, so its rejoin can ride the incremental tail path
		// instead of falling back to a wholesale transfer.
		spec.Durability = store.BackendMemory
		spec.LogRetention = 64
	}
	if cell.Batching {
		spec.BatchSize = 4
	}
	if cell.Checkpointing {
		spec.CheckpointInterval = 8
	}
	if cell.Strategy != nil {
		strat := cell.Strategy
		spec.NewBehavior = func(id types.ReplicaID, a auth.Authenticator) engine.Behavior {
			if id != byzID {
				return nil
			}
			return strat.New(Env{Self: id, N: n, Auth: a, Protocol: cell.Protocol})
		}
	}

	rec := newRecorder()
	drivers := make([]*workload.ClosedLoop, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		drivers[i] = &workload.ClosedLoop{
			Gen:         hotIncrGen{Contention: cfg.Contention},
			Recorder:    rec,
			MaxRequests: cfg.Requests,
		}
		spec.Clients = append(spec.Clients, bench.ClientGroup{
			Region: regions[i%len(regions)],
			Count:  1,
			NewDriver: func(int) workload.Driver {
				return &LateJoin{Inner: drivers[i], Delay: time.Duration(i) * cfg.JoinStagger}
			},
		})
	}

	cl, err := bench.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", cell.Name(), err)
	}
	if cell.Shape != nil {
		env := ShapeEnv{N: n, HealAt: cfg.HealAt, Now: cl.RT.Now, Rand: cl.RT.Kernel().Rand()}
		cl.RT.SetFilter(Compose(cell.Shape.New(env)))
	}

	res := &Result{Cell: cell, Seed: cfg.Seed, Expected: cfg.Clients * int(cfg.Requests)}
	// journal reads replica i's current application — restarts swap in a
	// fresh Journal, so the lookup must go through cl.Apps, not a slice
	// captured at build time.
	journal := func(i int) *Journal { return cl.Apps[i].(*Journal) }
	cl.RT.Start()
	allDone := func() bool {
		for _, d := range drivers {
			if d.Done() < cfg.Requests {
				return false
			}
		}
		return true
	}
	// The crash-restart fault: once half the workload is through, replica 1
	// (honest even in Byzantine cells) is hard-killed, sits out Downtime of
	// virtual time while the cluster progresses without it, and is rebuilt
	// from its durable store with a brand-new application instance.
	const restartID = 1
	if cell.Restart {
		halfDone := func() bool {
			var done uint64
			for _, d := range drivers {
				done += d.Done()
			}
			return 2*done >= uint64(cfg.Clients)*cfg.Requests
		}
		cl.RT.RunUntil(halfDone, cfg.Deadline)
		cl.RT.Crash(types.ReplicaNode(restartID))
		cl.RT.Run(cl.RT.Now() + cfg.Downtime)
		if err := cl.RestartReplica(restartID); err != nil {
			return nil, fmt.Errorf("scenario %s: restart: %w", cell.Name(), err)
		}
	}
	live := cl.RT.RunUntil(allDone, cfg.Deadline)
	cl.RT.Run(cl.RT.Now() + cfg.Settle)

	correct := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if cell.Strategy != nil && types.ReplicaID(i) == byzID {
			continue
		}
		correct = append(correct, i)
	}
	// A partition victim can only recover through state transfer, which
	// requires a checkpointing cell: without checkpoints nothing anchors a
	// transfer, peers retain their full logs, and the victims (correctly,
	// safely) stay behind until retransmission closes the gap — so the
	// convergence and counter checks cover the never-partitioned replicas
	// only. With checkpointing on, every protocol implements catch-up and
	// each victim's recovery is enforced.
	convergent := correct
	if cell.Shape != nil && cell.Shape.Victims != nil && !cell.Checkpointing {
		cut := make(map[int]bool)
		for _, v := range cell.Shape.Victims(n) {
			cut[v] = true
		}
		convergent = convergent[:0:0]
		for _, i := range correct {
			if !cut[i] {
				convergent = append(convergent, i)
			}
		}
	}
	// The same reasoning covers a restart victim: it recovers everything it
	// executed before the crash from its store, but the instances decided
	// during its downtime are only re-obtainable through state transfer —
	// without checkpointing it stays (correctly, safely) behind.
	if cell.Restart && !cell.Checkpointing {
		trimmed := convergent[:0:0]
		for _, i := range convergent {
			if i != restartID {
				trimmed = append(trimmed, i)
			}
		}
		convergent = trimmed
	}
	converged := func() bool {
		ref := journal(convergent[0]).Digest()
		for _, i := range convergent[1:] {
			if journal(i).Digest() != ref {
				return false
			}
		}
		return true
	}
	if !cl.RT.RunUntil(converged, cl.RT.Now()+cfg.ConvergeWait) {
		digests := make([]string, 0, len(convergent))
		for _, i := range convergent {
			digests = append(digests, fmt.Sprintf("r%d=%s", i, journal(i).Digest()))
		}
		res.Violations = append(res.Violations, "digest divergence: "+strings.Join(digests, " "))
	}

	// Liveness: every correct client's workload completed once faults
	// healed (checked after the convergence wait gave stragglers time).
	if !live && !allDone() {
		for i, d := range drivers {
			if d.Done() < cfg.Requests {
				res.Violations = append(res.Violations,
					fmt.Sprintf("liveness: client %d completed %d/%d", i, d.Done(), cfg.Requests))
			}
		}
	}

	// Exactly-once, per replica: the execution journal must hold no
	// duplicate (client, ts)…
	for _, i := range correct {
		for _, d := range journal(i).Duplicates {
			res.Violations = append(res.Violations, fmt.Sprintf("replica %d: %s", i, d))
		}
	}
	// …every final execution must be the command its client issued, by
	// digest per (client, ts), including executions a later install
	// overwrote (checked once every issued command completed and is known)…
	if allDone() {
		for _, i := range correct {
			for _, v := range journal(i).Impostors(rec.issued) {
				res.Violations = append(res.Violations, fmt.Sprintf("replica %d: %s", i, v))
			}
		}
	}
	// …and end-to-end: the hot counter must equal the completed INCRs
	// exactly (meaningful only when the workload fully completed).
	if allDone() {
		for _, i := range convergent {
			if got := journal(i).Counter(HotKey); got != uint64(rec.incrs) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("replica %d: hot counter %d != %d completed INCRs", i, got, rec.incrs))
			}
		}
	}

	// Restart-specific invariants: the victim must actually have rebuilt
	// itself from its store, and under ezBFT it must have recovered its
	// executed prefix locally — any wholesale state transfer after the
	// restart means recovery failed and the replica re-fetched state it
	// already held durable.
	if cell.Restart {
		victim := cl.Replicas[restartID].(interface{ WALStats() engine.WALStats })
		if victim.WALStats().Recoveries == 0 {
			res.Violations = append(res.Violations, "restart: replica came back without recovering from its store")
		}
		if len(cl.EZReplicas) == n {
			st := cl.EZReplicas[restartID].Stats()
			if wholesale := st.CatchupsInstalled - st.TailsInstalled; wholesale > 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("restart: %d wholesale state transfer(s) after recovery (tail-only expected)", wholesale))
			}
		}
	}

	// Catch-up and view-change telemetry, summed over the correct replicas.
	for _, i := range correct {
		var st engine.SeqStats
		switch {
		case len(cl.EZReplicas) == n:
			ez := cl.EZReplicas[i].Stats()
			st.CatchupsInstalled, st.CatchupMismatches = ez.CatchupsInstalled, ez.CatchupMismatches
		case len(cl.PBReplicas) == n:
			st = cl.PBReplicas[i].Stats().SeqStats
		case len(cl.ZYReplicas) == n:
			st = cl.ZYReplicas[i].Stats().SeqStats
		case len(cl.FBReplicas) == n:
			st = cl.FBReplicas[i].Stats().SeqStats
		}
		res.CatchupInstalls += st.CatchupsInstalled
		res.CatchupMismatches += st.CatchupMismatches
		res.ViewChanges += st.ViewChanges
	}

	// No conflicting commit certificates (ezBFT's dependency agreement).
	if len(cl.EZReplicas) == len(cl.Replicas) {
		res.Violations = append(res.Violations, conflictingCerts(cl.EZReplicas, correct)...)
	}

	res.Completed = rec.count
	if rec.count > 0 {
		res.Mean = rec.total / time.Duration(rec.count)
	}
	for _, c := range cl.Clients {
		st := c.ClientStats()
		res.POMs += st.POMsSent
		res.SlowTimeouts += st.SlowTimeouts
		res.SilentSkips += st.SilentSkips
	}
	res.VirtualTime = cl.RT.Now()
	res.Pass = len(res.Violations) == 0
	return res, nil
}

// conflictingCerts cross-checks committed (deps, seq) certificates: two
// correct replicas committing the same instance with different dependency
// sets, sequence numbers, or commands is a safety violation. The shared
// (non-cloning) certificate accessor is safe here: the run is over, the
// certificates are only read, and nothing touches the replicas while the
// comparison holds them.
func conflictingCerts(replicas []*core.Replica, correct []int) []string {
	type owned struct {
		cert core.CommitCert
		by   int
	}
	var out []string
	ref := make(map[types.InstanceID]owned)
	for _, i := range correct {
		for _, cert := range replicas[i].CommittedCertsShared() {
			prev, ok := ref[cert.Inst]
			if !ok {
				ref[cert.Inst] = owned{cert: cert, by: i}
				continue
			}
			if prev.cert.Seq != cert.Seq || prev.cert.CmdDigest != cert.CmdDigest ||
				!prev.cert.Deps.Equal(cert.Deps) {
				out = append(out, fmt.Sprintf(
					"conflicting commit at %v: replica %d (deps %v seq %d) vs replica %d (deps %v seq %d)",
					cert.Inst, prev.by, prev.cert.Deps, prev.cert.Seq, i, cert.Deps, cert.Seq))
			}
		}
	}
	return out
}

// DefaultMatrix enumerates the full fault matrix: every strategy and
// every shape (plus the honest/clean baseline and two composed
// strategy×shape cells) for all four protocols × batching on/off ×
// checkpointing on/off, plus crash-restart cells for every protocol.
func DefaultMatrix() []Cell {
	var cells []Cell
	for _, p := range bench.Protocols {
		for _, batch := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				cells = append(cells, Cell{Protocol: p, Batching: batch, Checkpointing: ckpt})
				for _, s := range Strategies() {
					s := s
					cells = append(cells, Cell{Protocol: p, Strategy: &s, Batching: batch, Checkpointing: ckpt})
				}
				for _, sh := range Shapes() {
					sh := sh
					cells = append(cells, Cell{Protocol: p, Shape: &sh, Batching: batch, Checkpointing: ckpt})
				}
				cells = append(cells, Cell{
					Protocol: p, Strategy: StrategyByName("checkpoint-liar"),
					Shape: ShapeByName("slow-links"), Batching: batch, Checkpointing: ckpt,
				})
				// The forged-proof-chain composition: the flapping victim is
				// forced into catch-up while the compromised replica serves
				// it forged snapshots under genuine checkpoint proofs — the
				// cell that makes f+1 cross-validation load-bearing.
				cells = append(cells, Cell{
					Protocol: p, Strategy: StrategyByName("lying-snapshot-responder"),
					Shape: ShapeByName("flapping-partition"), Batching: batch, Checkpointing: ckpt,
				})
			}
		}
	}
	// The durability dimension: crash-restart cells, appended so every
	// earlier cell keeps its seed-of-record. Checkpointing variants exercise
	// snapshot-cut recovery plus tail catch-up; the checkpointing-off ezBFT
	// cell recovers by full WAL replay from genesis.
	restarts := func(p engine.Protocol) []Cell {
		return []Cell{
			{Protocol: p, Restart: true, Checkpointing: true},
			{Protocol: p, Restart: true, Batching: true, Checkpointing: true},
		}
	}
	cells = append(cells, restarts(engine.EZBFT)...)
	cells = append(cells, restarts(engine.PBFT)...)
	cells = append(cells, Cell{Protocol: engine.EZBFT, Restart: true})
	cells = append(cells, restarts(engine.Zyzzyva)...)
	return append(cells, restarts(engine.FaB)...)
}

// SmokeMatrix is the downsized CI gate: one Byzantine strategy and one
// network shape per protocol, fixed seeds, cells verified to pass
// deterministically.
func SmokeMatrix() []Cell {
	return []Cell{
		{Protocol: engine.EZBFT, Strategy: StrategyByName("equivocating-owner"), Batching: true, Checkpointing: true},
		{Protocol: engine.EZBFT, Shape: ShapeByName("flapping-partition"), Batching: true, Checkpointing: true},
		{Protocol: engine.PBFT, Strategy: StrategyByName("checkpoint-liar"), Batching: true, Checkpointing: true},
		{Protocol: engine.PBFT, Shape: ShapeByName("slow-links"), Batching: true, Checkpointing: true},
		{Protocol: engine.Zyzzyva, Strategy: StrategyByName("stale-order-replay"), Batching: true, Checkpointing: true},
		{Protocol: engine.Zyzzyva, Strategy: StrategyByName("silent-owner"), Batching: true, Checkpointing: true},
		{Protocol: engine.Zyzzyva, Shape: ShapeByName("reorder-dup"), Batching: true, Checkpointing: true},
		{Protocol: engine.FaB, Strategy: StrategyByName("slow-owner"), Batching: true, Checkpointing: true},
		{Protocol: engine.FaB, Shape: ShapeByName("dup-requests"), Batching: true, Checkpointing: true},
		{Protocol: engine.EZBFT, Restart: true, Batching: true, Checkpointing: true},
		{Protocol: engine.PBFT, Restart: true, Batching: true, Checkpointing: true},
		{Protocol: engine.EZBFT, Strategy: StrategyByName("lying-snapshot-responder"),
			Shape: ShapeByName("flapping-partition"), Batching: true, Checkpointing: true},
		{Protocol: engine.PBFT, Strategy: StrategyByName("lying-snapshot-responder"),
			Shape: ShapeByName("flapping-partition"), Batching: true, Checkpointing: true},
		{Protocol: engine.FaB, Shape: ShapeByName("view-change-storm"), Batching: true, Checkpointing: true},
	}
}

// MatrixReport is a rendered matrix run.
type MatrixReport struct {
	Results []*Result
}

// RunMatrix executes every cell under the same config.
func RunMatrix(cells []Cell, cfg Config) (*MatrixReport, error) {
	rep := &MatrixReport{Results: make([]*Result, 0, len(cells))}
	for _, cell := range cells {
		res, err := Run(cell, cfg)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// Failures returns the unexpectedly failing cells (expected failures —
// cells whose XFail documents a known deficiency — are excluded).
func (r *MatrixReport) Failures() []*Result {
	var out []*Result
	for _, res := range r.Results {
		if !res.Pass && res.Cell.XFail == "" {
			out = append(out, res)
		}
	}
	return out
}

// Render implements the bench CLI's renderer contract: a per-cell
// pass/latency table, with every failing cell's replay line (cell name +
// seed) below it.
func (r *MatrixReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario matrix: %d cells, %d failing\n", len(r.Results), len(r.Failures()))
	fmt.Fprintf(&b, "%-48s %-5s %9s %10s %6s %5s %8s\n", "cell", "ok", "done", "mean", "POMs", "VCs", "vtime")
	for _, res := range r.Results {
		ok := "pass"
		switch {
		case !res.Pass && res.Cell.XFail != "":
			ok = "xfail"
		case !res.Pass:
			ok = "FAIL"
		case res.Cell.XFail != "":
			ok = "XPASS"
		}
		fmt.Fprintf(&b, "%-48s %-5s %4d/%-4d %10s %6d %5d %8s\n",
			res.Cell.Name(), ok, res.Completed, res.Expected,
			res.Mean.Round(time.Millisecond), res.POMs, res.ViewChanges, res.VirtualTime.Round(time.Second))
	}
	for _, res := range r.Results {
		if !res.Pass {
			fmt.Fprintf(&b, "replay: %s\n", res)
		}
	}
	return b.String()
}
