package main

import (
	"time"

	"ezbft"
)

// Load-generator constants shared by every workload.
const (
	numReplicas   = 4
	numClients    = 2 // one connection set each
	valueSize     = 16
	keyRingSize   = 4096 // per-client keys; a power of two
	hotKey        = "hot"
	windowLength  = time.Second
	warmup        = 3 * time.Second
	requestBudget = 5 * time.Second  // per-request deadline, from the due time
	watchdogSlack = 10 * time.Second // per-workload watchdog beyond the planned length
	setupProbes   = 4                // extra bring-ups timed besides the measured cluster's
)

// spec is one workload: how the cluster is set up and how it is loaded.
// Every workload is an open loop at a rate the cluster serves with about a
// quarter of the one processor the benchmark runs on: a saturated loop
// measures how much processor the shared host hands out, not the program
// (see README.md).
type spec struct {
	name string
	why  string
	// mesh selects the in-process live mesh; otherwise loopback TCP.
	mesh     bool
	protocol ezbft.Protocol
	ecdsa    bool
	// delay is the one-way delivery delay injected on the mesh.
	delay      time.Duration
	checkpoint uint64
	// disk turns on the disk WAL (fsync off) under a temporary directory.
	disk bool
	// down is the replica closed before warm-up, or -1.
	down int
	// rate is the offered rate in requests/s over all clients.
	rate float64
	// hotShare of the commands write the one shared key.
	hotShare float64
	// seconds is the measured length of a full-suite run.
	seconds int
}

// workloads is the suite, in run order. The why of each is also recorded in
// BENCHMARK.json and README.md.
var workloads = []spec{
	{
		name: "wan_conflict", mesh: true, protocol: ezbft.EZBFT, delay: 20 * time.Millisecond,
		down: -1, rate: 400, hotShare: 0.10, seconds: 15,
		why: "The paper's headline: 20 ms one-way links, 10% of writes on one shared key. p50 sits on the 3-step fast path (the 5-step slow path is the tail); processor-side savings must not move it.",
	},
	{
		name: "tcp_ezbft", protocol: ezbft.EZBFT, checkpoint: 512, down: -1, rate: 500, seconds: 15,
		why: "The real wire path (codec, TCP framing, verify pool, ordering loop, executor, checkpoints) on disjoint keys: no delay, so latency and cost are processor time only; conflict handling is bypassed.",
	},
	{
		name: "tcp_pbft", protocol: ezbft.PBFT, checkpoint: 512, down: -1, rate: 500, seconds: 15,
		why: "The paper's baseline on the same engine, transport, codec, auth and kvstore layers (one primary, three phases, no speculation): a gain bought for ezBFT at the shared layers' expense shows here.",
	},
	{
		name: "tcp_ecdsa", protocol: ezbft.EZBFT, ecdsa: true, checkpoint: 512, down: -1, rate: 40, seconds: 15,
		why: "ECDSA makes auth the bulk of a request's processor time, so sign and verify counts, the verify cache and verify-pool placement show here and not in tcp_ezbft.",
	},
	{
		name: "tcp_wal", protocol: ezbft.EZBFT, checkpoint: 512, disk: true, down: -1, rate: 500, seconds: 15,
		why: "Disk write-ahead log without fsync: the store layer and durable-record encoding on the ordering loop, which every other workload bypasses. fsync stays off: a shared VM disk is not a measurement.",
	},
	{
		name: "tcp_one_down", protocol: ezbft.EZBFT, down: 3, rate: 200, seconds: 9,
		why: "Fault run on a schedule: with one replica silent every command waits out the client's fast-path timer and commits on the slow path; requests due during the fault are counted, not skipped.",
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
