// Package scenario is the adversarial scenario harness: it composes
// Byzantine replica strategies, hostile network shapes, and client churn
// into reproducible fault-matrix runs over the deterministic simulator,
// and checks protocol invariants after every run. It is the regression
// gate the ROADMAP calls for: every attack from the "Revisiting EZBFT"
// note that this repository can express lives here as a named, replayable
// cell.
//
// # Composition model
//
// A scenario cell is the product of four independent axes:
//
//   - a Strategy: a named Byzantine behaviour injected into one replica
//     through the engine.Behavior hook. A strategy intercepts the
//     compromised replica's outbound and inbound messages, and may
//     suppress, mutate (copy + re-sign with the replica's own key), delay,
//     or replay them. Strategies are protocol-agnostic: they type-switch
//     on the concrete wire messages of all four protocols and wave
//     everything they do not target through, so one strategy definition
//     attacks ezBFT, PBFT, Zyzzyva and FaB alike.
//   - a Shape: a named hostile network condition built on sim.Filter —
//     flapping partitions, asymmetric delay, reorder/duplication, slow
//     links. Shapes heal at a configurable virtual time (HealAt), which is
//     what makes liveness checkable: after the network heals, every
//     correct client's commands must complete. Compose chains any number
//     of shape filters (Drop dominates, Duplicate beats Deliver, extra
//     delays add), so partitions and reordering can be active at once.
//   - client churn: staggered joins (LateJoin wraps any workload.Driver),
//     leaves (closed-loop drivers going quiet after MaxRequests), and
//     duplicate request resubmission (the DuplicateRequests shape clones
//     client traffic with seconds of skew — the retransmission a real WAN
//     produces).
//   - the protocol configuration: protocol × batching on/off ×
//     checkpointing on/off.
//
// Run executes one cell under a fixed seed and returns a Result; the
// invariant checks are
//
//   - converged application digests across all correct replicas,
//   - exactly-once execution per (client, timestamp) — both a journal of
//     final executions (no duplicates on any correct replica) and an
//     end-to-end INCR counter on the contended hot key that must equal
//     the number of completed INCR requests,
//   - every final execution is the command its client issued, compared by
//     digest per (client, timestamp) over everything a replica executed —
//     a forged command a later state transfer overwrote still counts,
//   - no conflicting commit certificates: two correct ezBFT replicas must
//     never commit the same instance with different dependency sets or
//     sequence numbers,
//   - liveness: every correct client's workload completes once faults
//     heal.
//
// Every failure is reproducible from the printed seed + cell name: rerun
// the same cell with the same seed (tests read EZBFT_SCENARIO_SEED) and
// the simulation replays event-for-event.
//
// # Attack catalogue
//
// Strategies() returns the encoded catalogue: equivocating owner (the
// instance-skew double-signing attack of the "Revisiting EZBFT" note —
// detected on ezBFT by the client's POM check, deposed by view change on
// the baselines), stale ordering replay, checkpoint-vote lying,
// commit flooding, silent owner, slow owner, lying catch-up responder
// (garbage snapshot bytes), lying snapshot responder (the stealthy
// variant: the real catch-up response with one flipped snapshot byte under
// a genuine checkpoint proof and a valid signature), and the silent and
// flapping repliers (a replica that orders and votes but answers no
// client, or one request in three: the speculative protocols' clients lose
// their fast path and must not pay a timer per request for it).
// StrategyByName also resolves forged-suffix-responder: the real catch-up
// response with the commands of its executed suffix altered and re-signed.
// It attacks only a victim forced to catch up, so it runs composed with
// the flapping partition (TestCrossValidationConviction), not in the
// DefaultMatrix sweep.
//
// The forged transfers pass every per-message check. What defeats them is
// the one rule every protocol's state transfer follows: nothing installs on
// a single responder's word. A transfer installs only once f+1 distinct
// responders — so at least one correct replica — agree on it (the transfer
// round all four share, engine.Lifecycle), and for the sequenced protocols
// only the executed-suffix prefix all of them vouch for replays; a
// responder outside the agreement is counted in CatchupMismatches.
//
// Shapes() adds the hostile network catalogue, including the
// view-change-storm shape: isolate/heal cycles that rotate through the
// replicas starting with the primary. At the default Config they end
// before any backup's ForwardTimeout, so the storm cells run no view
// change (the silent-owner and equivocating-owner cells do); the cut
// replica returns with a log gap. DefaultMatrix crosses both catalogues
// with all four protocols × batching × checkpointing; `ezbft-bench -e
// scenarios` runs it and renders the per-cell report.
package scenario
