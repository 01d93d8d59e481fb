// Package shard scales writes past one quorum by partitioning the keyspace
// across N independent consensus groups ("shards"). Each shard is a complete,
// unmodified deployment of any registered protocol engine — ezBFT, PBFT,
// Zyzzyva, or FaB — with its own replicas, its own log, and its own quorums;
// no protocol message ever crosses shards. The package adds exactly three
// things on top: a routing function, a thin application wrapper, and a
// client-driven commit protocol for the rare commands whose keys span shards.
//
// # Routing
//
// Router maps keys onto shards with a consistent-hash ring (VirtualNodes
// points per shard; FNV-1a with a splitmix64 finalizer — see ringHash). The
// mapping is a pure function of (shard count, key): every client, every
// replica-side test, and every bench harness that knows the shard count
// derives the identical routing table with no coordination and no
// configuration service. Single-key commands — the overwhelming majority in
// the target workloads — route to their owning shard and cost exactly one
// unsharded consensus round: no extra messages, no extra signatures, no
// coordination of any kind. At shards=1 the Router degenerates to the
// identity function and the whole layer disappears.
//
// # The transaction wrapper (App)
//
// Wrap embeds any types.Application in a transaction layer. Plain commands
// pass straight through to the inner application — same Apply, same
// speculation hooks, and (critically) the same Digest while no transaction
// state exists, so a sharded deployment at shards=1 is byte-identical to an
// unsharded one. Transaction phase commands
// (OpTxnLock, OpTxnApply, OpTxnAbort) execute against per-shard lock tables
// that the wrapper replicates through the shard's own consensus: a lock
// stages the transaction's sub-operations and takes per-key locks, an apply
// executes the staged operations and releases, an abort discards and
// releases. Phase commands carry the reserved TxnKey and interfere with
// everything (types.Command.Interferes) — every replica of a
// shard observes the same phase sequence at the same log positions, which is
// what makes the lock tables themselves replicated state.
//
// # Cross-shard commit
//
// A multi-key transaction whose footprint spans shards commits through a
// client-driven two-phase lock-and-apply:
//
//  1. The sub-operations are grouped by owning shard (NewMachine). The
//     touched shards, sorted ascending, fix both the coordinator (the
//     lowest touched shard — every client derives the same coordinator for
//     the same footprint) and the lock order.
//  2. Lock phase: the coordinator submits OpTxnLock to each touched shard
//     in ascending shard order, strictly sequentially — the next lock is
//     sent only after the previous one is granted. Global lock ordering
//     makes deadlock impossible: two transactions contending for the same
//     shards acquire them in the same order, so one of them simply loses a
//     lock to the other (conflict) and aborts cleanly. A refused lock, a
//     failed phase, or a transaction-deadline expiry triggers abort.
//  3. Apply phase: once every shard granted, the transaction is past its
//     commit point. OpTxnApply fans out to all touched shards in parallel;
//     each shard executes its staged sub-operations and releases its locks.
//     Failed applies are re-sent until they succeed — the shards hold
//     staged state and the phase is idempotent, so retrying is always safe.
//  4. Abort: OpTxnAbort fans out to every touched shard (including ones
//     never locked — an abort tombstone refuses any late-arriving lock, so
//     a delayed lock command cannot resurrect an aborted transaction).
//     Failed aborts are re-sent until every shard acknowledges.
//
// A transaction whose footprint lands on a single shard short-circuits to
// one phase: a single OpTxnLock with the OnePhase flag locks, applies, and
// releases in one consensus round — the same latency class as a plain
// command.
//
// # Exactly-once
//
// Every phase command is an ordinary client command underneath, so the
// per-client timestamp tables the protocols already maintain deduplicate
// wire-level retransmissions. Above that, the lock tables make the phases
// themselves idempotent across coordinators: a re-sent lock from the holder
// is re-granted, an apply against an already-applied transaction is answered
// from the applied tombstone without re-executing, and aborts are idempotent
// in both directions (applied wins over abort, abort tombstones persist).
// Two coordinators racing the same transaction id — a duplicated client
// retry — both run the full protocol and both report committed, while the
// staged writes execute exactly once. Tombstones are capped FIFO
// (TombstoneCap); the cap only needs to cover the window in which a
// duplicate coordinator can still be alive.
//
// # Determinism
//
// The commit protocol is implemented as a pure state machine (Machine):
// given a routing table, a transaction id, and sub-operations, it emits
// phase commands (Actions) and consumes completions (Events) — no clocks, no
// goroutines, no I/O. The blocking live client (Client) and the simulator's
// lockstep transaction pump drive the same Machine; in the simulator every
// event is applied at a virtual-time quantum boundary in submission order,
// so a sharded simulation is exactly as deterministic and reproducible as
// its seeds, and every scenario-matrix failure replays from a seed. The
// abort path, timeout handling, and duplicate-coordinator behaviour are
// therefore testable in virtual time with fault injection, not just
// observable under wall-clock races.
package shard
