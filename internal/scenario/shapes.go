package scenario

import (
	"math/rand"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/sim"
	"ezbft/internal/types"
)

// ShapeEnv gives a shape the cluster facts and the virtual clock it needs.
// Now is read at filter time, so one filter serves the whole run; Rand is
// the kernel's deterministic RNG.
type ShapeEnv struct {
	N      int
	HealAt time.Duration
	Now    func() time.Duration
	Rand   *rand.Rand
}

// Shape is a named hostile network condition built on sim.Filter.
type Shape struct {
	Name string
	New  func(env ShapeEnv) sim.Filter
	// Victims lists the replicas the shape cuts off entirely for whole
	// windows (nil when it never fully isolates anyone). Recovering from
	// such a cut requires state transfer, so the harness demands the
	// victims' convergence only in cells where checkpointing (and with it
	// the catch-up protocol) is enabled.
	Victims func(n int) []int
}

// Shapes returns the catalogue of network shapes.
func Shapes() []Shape {
	return []Shape{
		{Name: "flapping-partition", New: flappingPartition, Victims: lastReplica},
		{Name: "view-change-storm", New: viewChangeStorm, Victims: allButLast},
		{Name: "asym-delay", New: asymmetricDelay},
		{Name: "reorder-dup", New: reorderDuplicate},
		{Name: "slow-links", New: slowLinks},
		{Name: "dup-requests", New: duplicateRequests},
	}
}

func lastReplica(n int) []int { return []int{n - 1} }

func allButLast(n int) []int {
	vs := make([]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		vs = append(vs, i)
	}
	return vs
}

// ShapeByName resolves a catalogue entry (nil when unknown).
func ShapeByName(name string) *Shape {
	for _, s := range Shapes() {
		if s.Name == name {
			s := s
			return &s
		}
	}
	return nil
}

// Compose chains filters: Drop dominates, Duplicate beats Deliver, and
// extra delays add. Nil filters are skipped, so strategy-only cells can
// pass a nil shape filter straight through.
func Compose(filters ...sim.Filter) sim.Filter {
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		verdict := sim.Deliver
		var extra time.Duration
		for _, f := range filters {
			if f == nil {
				continue
			}
			v, d := f(from, to, msg)
			if v == sim.Drop {
				return sim.Drop, 0
			}
			if v == sim.Duplicate {
				verdict = sim.Duplicate
			}
			extra += d
		}
		return verdict, extra
	}
}

// flappingPartition isolates the highest-numbered replica on a 2s cycle —
// 1s cut off, 1s connected — until the shape heals. The flapping is the
// hard part: each reconnection floods the victim with missed traffic just
// before the next cut.
func flappingPartition(env ShapeEnv) sim.Filter {
	victim := types.ReplicaNode(types.ReplicaID(env.N - 1))
	const period = 2 * time.Second
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		now := env.Now()
		if now >= env.HealAt {
			return sim.Deliver, 0
		}
		if (from == victim || to == victim) && (now/(period/2))%2 == 0 {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	}
}

// viewChangeStorm isolates one replica at a time: on a 4s cycle it cuts
// replica (cycle mod N-1) off for the first 2s and reconnects it for 2s,
// a rotation meant to cut each primary the previous cycle installed.
// Replica N-1 is never cut, keeping one replica with full state. At the
// default Config it forces no view change: the view-0 primary's 2s cut is
// shorter than ForwardTimeout (4 × the 600 ms latency bound, 2.4s), and
// HealAt (3s) ends the storm inside the first cycle. What it does exercise
// is a primary that misses 2s of traffic and returns with a log gap, which
// retransmission or, with checkpointing, state transfer closes. Forcing
// back-to-back view changes takes longer cuts and a later HealAt, which
// would move ezBFT's storm cells too.
func viewChangeStorm(env ShapeEnv) sim.Filter {
	const period = 4 * time.Second
	rotation := env.N - 1
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		now := env.Now()
		if now >= env.HealAt || now%period >= period/2 {
			return sim.Deliver, 0
		}
		target := types.ReplicaNode(types.ReplicaID(int(now/period) % rotation))
		if from == target || to == target {
			return sim.Drop, 0
		}
		return sim.Deliver, 0
	}
}

// asymmetricDelay slows one direction only: everything replica 1 sends
// takes an extra 250ms, while traffic toward it is unaffected — the
// congested-uplink asymmetry that desynchronizes timeout estimates.
func asymmetricDelay(env ShapeEnv) sim.Filter {
	slow := types.ReplicaNode(1)
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if env.Now() < env.HealAt && from == slow {
			return sim.Deliver, 250 * time.Millisecond
		}
		return sim.Deliver, 0
	}
}

// reorderDuplicate delivers a random fifth of all messages twice, the
// copy 40–120ms late — behind newer traffic, so recipients see both
// duplication and reordering.
func reorderDuplicate(env ShapeEnv) sim.Filter {
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if env.Now() < env.HealAt && env.Rand.Float64() < 0.2 {
			return sim.Duplicate, 40*time.Millisecond + time.Duration(env.Rand.Int63n(int64(80*time.Millisecond)))
		}
		return sim.Deliver, 0
	}
}

// slowLinks adds up to 60ms of jitter to every message — degraded WAN
// links on top of the topology's base latencies.
func slowLinks(env ShapeEnv) sim.Filter {
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if env.Now() < env.HealAt {
			return sim.Deliver, time.Duration(env.Rand.Int63n(int64(60 * time.Millisecond)))
		}
		return sim.Deliver, 0
	}
}

// duplicateRequests clones every client-to-replica message with ~1.5s of
// skew — the duplicate resubmission a retransmitting WAN client produces.
// Replicas must answer the late copy from the reply cache, never by
// re-executing.
func duplicateRequests(env ShapeEnv) sim.Filter {
	return func(from, to types.NodeID, msg codec.Message) (sim.Verdict, time.Duration) {
		if env.Now() < env.HealAt && from.IsClient() && to.IsReplica() {
			return sim.Duplicate, 1500 * time.Millisecond
		}
		return sim.Deliver, 0
	}
}
