package main

import (
	"math"
	"time"

	"ezbft"
)

// layerMetrics lists every per-layer metric with its unit: first the rows a
// traced run computes, then the microbenchmarks. Every one is reported on
// every workload (zero where the workload bypasses the layer), and
// BENCHMARK.json lists the same names.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.lateness_p50_ms", "ms"}, {"loadgen.lateness_p99_ms", "ms"}, {"loadgen.latency_p99_ms", "ms"},
	{"client.fast_decisions_per_op", "count"}, {"client.slow_decisions_per_op", "count"},
	{"client.retries_per_op", "count"}, {"client.fast_path_share", "ratio"},
	{"client.receive_self_us_per_op", "us"}, {"client.submit_us_p50", "us"},
	{"transport.msgs_per_op", "count"}, {"transport.bytes_per_op", "B"}, {"transport.send_us_per_op", "us"},
	{"transport.verifypool_wait_us_p50", "us"}, {"transport.verifypool_verify_us_per_op", "us"},
	{"transport.inbox_wait_us_p50", "us"}, {"transport.inbox_wait_us_p99", "us"},
	{"auth.signs_per_op", "count"}, {"auth.verifies_per_op", "count"}, {"auth.verify_cache_hit_share", "ratio"},
	{"auth.sign_us_per_op", "us"}, {"auth.verify_us_per_op", "us"},
	{"engine.batch_mean_size", "count"}, {"engine.checkpoints_per_kop", "count"},
	{"engine.truncated_entries_per_kop", "count"},
	{"core.receive_self_us_per_op.request", "us"}, {"core.receive_self_us_per_op.specorder", "us"},
	{"core.receive_self_us_per_op.specreply", "us"}, {"core.receive_self_us_per_op.commitfast", "us"},
	{"core.receive_self_us_per_op.commit", "us"}, {"core.receive_self_us_per_op.checkpoint", "us"},
	{"core.receive_self_us_per_op.other", "us"}, {"core.ontimer_self_us_per_op", "us"},
	{"core.loop_busy_share", "ratio"}, {"core.slow_commits_per_op", "count"},
	{"core.deferred_commits_per_kop", "count"}, {"core.dropped_invalid", "count"}, {"core.owner_changes", "count"},
	{"pbft.receive_self_us_per_op.preprepare", "us"}, {"pbft.receive_self_us_per_op.prepare", "us"},
	{"pbft.receive_self_us_per_op.commit", "us"}, {"pbft.receive_self_us_per_op.checkpoint", "us"},
	{"kvstore.apply_us_per_op", "us"}, {"kvstore.calls_per_op", "count"},
	{"store.appends_per_op", "count"}, {"store.append_bytes_per_op", "B"}, {"store.syncs_per_op", "count"},
	{"store.append_us_per_op", "us"}, {"store.sync_us_per_op", "us"}, {"store.snapshot_ms_p50", "ms"},
	{"trace.overhead_share", "ratio"}, {"trace.unattributed_share", "ratio"}, {"trace.traced_s", "s"},

	{"codec.marshal_ns.request", "ns"}, {"codec.marshal_ns.specorder", "ns"}, {"codec.marshal_ns.specreply", "ns"},
	{"codec.marshal_ns.commit", "ns"}, {"codec.marshal_ns.preprepare", "ns"},
	{"codec.unmarshal_ns.request", "ns"}, {"codec.unmarshal_ns.specorder", "ns"},
	{"codec.unmarshal_ns.specreply", "ns"}, {"codec.unmarshal_ns.commit", "ns"},
	{"codec.unmarshal_ns.preprepare", "ns"},
	{"codec.allocs_per_roundtrip.request", "count"}, {"codec.allocs_per_roundtrip.specorder", "count"},
	{"codec.allocs_per_roundtrip.specreply", "count"}, {"codec.allocs_per_roundtrip.commit", "count"},
	{"codec.allocs_per_roundtrip.preprepare", "count"},
	{"auth.hmac_sign_ns", "ns"}, {"auth.hmac_verify_ns", "ns"}, {"auth.ecdsa_sign_us", "us"},
	{"auth.ecdsa_verify_us", "us"}, {"auth.ecdsa_verify_cached_ns", "ns"},
	{"graph.linearize_ns_per_cmd.independent", "ns"}, {"graph.linearize_ns_per_cmd.chain", "ns"},
	{"store.memory_append_ns", "ns"}, {"store.disk_append_ns", "ns"}, {"store.disk_sync_us", "us"},
	{"store.disk_fsync_us", "us"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// metrics computes the per-layer table of a traced run. Timed rows come
// from the spans of the traced windows and are stated per request
// committed in those windows, summed over every node; counter rows cover
// all measured windows.
func (lp *layerProbe) metrics(sp spec, windows [][]sample, stats []windowStats, marks []usage) map[string]float64 {
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = 0
	}

	var (
		tracedOps, allOps float64
		tracedWall        float64 // ns
		tracedCPU         float64 // ns of process CPU in traced windows
		cpuOn, cpuOff     []float64
		late, submits     []float64
		fast              float64
	)
	for w, ws := range stats {
		allOps += float64(ws.commits)
		// until is where tracing stopped within a traced window: its end,
		// or sooner if the span buffer filled.
		from := time.Duration(w) * windowLength
		until := from
		if lp.traced[w] {
			until = from + windowLength
			if full := lp.tr.fullAt.Load(); full != 0 {
				until = min(until, max(from, time.Duration(full-lp.t0)))
			}
		}
		share := float64(until-from) / float64(windowLength)
		tracedWall += float64(until - from)
		tracedCPU += share * float64(marks[w+1].cpu-marks[w].cpu)
		switch share {
		case 1:
			cpuOn = append(cpuOn, ws.cpuPerOp)
		case 0:
			cpuOff = append(cpuOff, ws.cpuPerOp)
		}
		for _, s := range windows[w] {
			if !s.ok {
				continue
			}
			if s.at < until {
				tracedOps++
			}
			late = append(late, ms(s.late))
			submits = append(submits, us(s.submit))
			if s.fast {
				fast++
			}
		}
	}
	perOp := func(v float64) float64 { return v / math.Max(tracedOps, 1) }

	out["loadgen.lateness_p50_ms"] = quantile(late, 0.5)
	out["loadgen.lateness_p99_ms"] = quantile(late, 0.99)
	out["client.submit_us_p50"] = quantile(submits, 0.5)
	out["client.fast_path_share"] = fast / math.Max(allOps, 1)

	// Self time: a span's duration less the part its children cover.
	spans := lp.tr.kept()
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		self[i] += s.end - s.start
		if s.parent >= 0 && spans[s.parent].end != 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var (
		count, calls, bytes [numKinds]float64
		dur, selfNs         [numKinds]float64
		clientSelf          float64
		busy                [numReplicas]float64
		inboxWaits          []float64 // us, replicas only
		poolWaits           []float64
		snapshots           []float64
		attributed          float64
	)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		d := float64(s.end - s.start)
		calls[s.kind]++
		count[s.kind] += float64(s.count)
		bytes[s.kind] += float64(s.bytes)
		dur[s.kind] += d
		selfNs[s.kind] += float64(self[i])
		replica := int(s.node) < numReplicas
		switch {
		case s.kind.isLoop() && replica:
			busy[s.node] += d
			if s.wait >= 0 {
				inboxWaits = append(inboxWaits, float64(s.wait)/1e3)
			}
		case s.kind.isLoop():
			clientSelf += float64(self[i])
		case s.kind == kindPoolVerify && replica && s.wait >= 0:
			poolWaits = append(poolWaits, float64(s.wait)/1e3)
		case s.kind == kindSaveSnapshot:
			snapshots = append(snapshots, d/1e6)
		}
		attributed += float64(self[i])
	}
	usPerOp := func(ns float64) float64 { return perOp(ns) / 1e3 }

	out["client.receive_self_us_per_op"] = usPerOp(clientSelf)
	out["transport.msgs_per_op"] = perOp(count[kindSend] + count[kindSendAll])
	out["transport.bytes_per_op"] = perOp(bytes[kindSend] + bytes[kindSendAll])
	out["transport.send_us_per_op"] = usPerOp(dur[kindSend] + dur[kindSendAll])
	out["transport.verifypool_wait_us_p50"] = quantile(poolWaits, 0.5)
	out["transport.verifypool_verify_us_per_op"] = usPerOp(dur[kindPoolVerify])
	out["transport.inbox_wait_us_p50"] = quantile(inboxWaits, 0.5)
	out["transport.inbox_wait_us_p99"] = quantile(inboxWaits, 0.99)
	out["auth.signs_per_op"] = perOp(calls[kindSign])
	out["auth.verifies_per_op"] = perOp(calls[kindVerify])
	if lp.cached && calls[kindVerify] > 0 {
		out["auth.verify_cache_hit_share"] = 1 - calls[kindVerifyMiss]/calls[kindVerify]
	}
	out["auth.sign_us_per_op"] = usPerOp(dur[kindSign])
	out["auth.verify_us_per_op"] = usPerOp(dur[kindVerify])
	for k, name := range map[kind]string{
		kindRequest: "core.receive_self_us_per_op.request", kindSpecOrder: "core.receive_self_us_per_op.specorder",
		kindSpecReply: "core.receive_self_us_per_op.specreply", kindCommitFast: "core.receive_self_us_per_op.commitfast",
		kindCommit: "core.receive_self_us_per_op.commit", kindCheckpoint: "core.receive_self_us_per_op.checkpoint",
		kindTimer:      "core.ontimer_self_us_per_op",
		kindPrePrepare: "pbft.receive_self_us_per_op.preprepare", kindPrepare: "pbft.receive_self_us_per_op.prepare",
		kindPBFTCommit: "pbft.receive_self_us_per_op.commit",
	} {
		out[name] = usPerOp(selfNs[k])
	}
	out["core.receive_self_us_per_op.other"] = usPerOp(selfNs[kindOther] + selfNs[kindCommitReply] + selfNs[kindReply])
	if sp.protocol == ezbft.PBFT {
		// The two protocols' checkpoint and request messages share a kind.
		out["pbft.receive_self_us_per_op.checkpoint"] = out["core.receive_self_us_per_op.checkpoint"]
		out["core.receive_self_us_per_op.checkpoint"] = 0
	}
	for _, b := range busy {
		out["core.loop_busy_share"] = math.Max(out["core.loop_busy_share"], b/math.Max(tracedWall, 1))
	}
	appKinds := []kind{kindSpecExecute, kindPromoteFinal, kindApply, kindRollback}
	for _, k := range appKinds {
		out["kvstore.apply_us_per_op"] += usPerOp(dur[k])
		out["kvstore.calls_per_op"] += perOp(calls[k])
	}
	out["store.appends_per_op"] = perOp(calls[kindAppend])
	out["store.append_bytes_per_op"] = perOp(bytes[kindAppend])
	out["store.syncs_per_op"] = perOp(calls[kindSync])
	out["store.append_us_per_op"] = usPerOp(dur[kindAppend])
	out["store.sync_us_per_op"] = usPerOp(dur[kindSync])
	out["store.snapshot_ms_p50"] = quantile(snapshots, 0.5)

	// Counters: the difference between the two boundary snapshots, as a
	// mean over the replicas still running.
	var total replicaCounters
	liveReplicas := 0.0
	for i := range lp.replicas {
		if lp.live[i] && i < len(lp.first) && i < len(lp.last) {
			liveReplicas++
			for c := range total {
				total[c] += lp.last[i][c] - lp.first[i][c]
			}
		}
	}
	perReplicaOp := func(v uint64) float64 { return float64(v) / math.Max(liveReplicas, 1) / math.Max(allOps, 1) }
	out["core.slow_commits_per_op"] = perReplicaOp(total[slowCommits])
	out["core.deferred_commits_per_kop"] = 1000 * perReplicaOp(total[deferredCommits])
	out["core.dropped_invalid"] = float64(total[droppedInvalid])
	out["core.owner_changes"] = float64(total[ownerChanges])
	out["engine.checkpoints_per_kop"] = 1000 * perReplicaOp(total[checkpoints])
	out["engine.truncated_entries_per_kop"] = 1000 * perReplicaOp(total[truncated])
	out["engine.batch_mean_size"] = 1 // unbatched: one request per instance
	if total[batches] > 0 {
		out["engine.batch_mean_size"] = float64(total[batchedRequests]) / float64(total[batches])
	}
	var cs ezbft.ClientStats
	for c, last := range lp.clientsLast {
		if c < len(lp.clientsFirst) {
			cs.FastDecisions += last.FastDecisions - lp.clientsFirst[c].FastDecisions
			cs.SlowDecisions += last.SlowDecisions - lp.clientsFirst[c].SlowDecisions
			cs.Retries += last.Retries - lp.clientsFirst[c].Retries
		}
	}
	out["client.fast_decisions_per_op"] = float64(cs.FastDecisions) / math.Max(allOps, 1)
	out["client.slow_decisions_per_op"] = float64(cs.SlowDecisions) / math.Max(allOps, 1)
	out["client.retries_per_op"] = float64(cs.Retries) / math.Max(allOps, 1)

	// What tracing cost, and how much of the traced windows' processor
	// time no span accounts for (the generator, the runtime, and the
	// socket reads and decodes inside TCPPeer, which offer no seam).
	if on, off := median(cpuOn), median(cpuOff); on > 0 && !math.IsNaN(off) {
		out["trace.overhead_share"] = 1 - off/on
	}
	if tracedCPU > 0 {
		out["trace.unattributed_share"] = 1 - attributed/tracedCPU
	}
	out["trace.traced_s"] = tracedWall / 1e9
	return out
}
