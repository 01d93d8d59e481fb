package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/core"
	"ezbft/internal/graph"
	"ezbft/internal/pbft"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// microBatches is how many batches a microbenchmark times; it reports the
// median batch's time per operation.
const microBatches = 9

// timePerOp runs op iters times per batch and returns the median batch's
// nanoseconds per call. Iteration counts are fixed, so a run always does
// the same work.
func timePerOp(iters int, op func()) float64 {
	op() // warm caches and pools outside the timing
	per := make([]float64, microBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		per[b] = float64(time.Since(start)) / float64(iters)
	}
	return median(per)
}

// allocsPerOp counts heap allocations per call of op.
func allocsPerOp(iters int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

// sampleMessages builds one representative wire message per kind the codec
// table names, shaped like the unbatched 16-byte-value traffic the
// workloads produce (32-byte HMAC tokens, a 3-reply slow-path certificate).
func sampleMessages() map[string]codec.Message {
	sig := make([]byte, 32)
	cmd := types.Command{Client: 1, Timestamp: 42, Op: types.OpPut, Key: "k1-1234", Value: make([]byte, valueSize)}
	inst := types.InstanceID{Space: 2, Slot: 77}
	req := core.Request{Cmd: cmd, Orig: -1, Sig: sig}
	so := &core.SpecOrder{
		Owner: 2, Inst: inst, Deps: types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 70}),
		Seq: 78, CmdDigest: cmd.Digest(), Req: req, Sig: sig,
	}
	reply := func(r types.ReplicaID) *core.SpecReply {
		return &core.SpecReply{
			Owner: 2, Inst: inst, Deps: so.Deps, Seq: 78, CmdDigest: so.CmdDigest,
			Client: 1, Timestamp: 42, Replica: r, Result: types.Result{OK: true}, SO: so, Sig: sig,
		}
	}
	return map[string]codec.Message{
		"request":   &req,
		"specorder": so,
		"specreply": reply(0),
		"commit": &core.Commit{
			Client: 1, Timestamp: 42, Inst: inst, Deps: so.Deps, Seq: 78,
			Cert: []*core.SpecReply{reply(0), reply(1), reply(2)}, Sig: sig,
		},
		"preprepare": &pbft.PrePrepare{
			View: 0, Seq: 77, CmdDigest: cmd.Digest(), Req: pbft.Request{Cmd: cmd, Sig: sig}, Sig: sig,
		},
	}
}

// closure builds a 64-instance dependency closure: independent instances,
// or one chain where each depends on its predecessor.
func closure(chain bool) *graph.DepGraph {
	g := graph.NewDepGraph()
	for i := 1; i <= 64; i++ {
		deps := types.NewInstanceSet()
		if chain && i > 1 {
			deps.Add(types.InstanceID{Space: 0, Slot: uint64(i - 1)})
		}
		g.Add(types.InstanceID{Space: 0, Slot: uint64(i)}, types.SeqNumber(i), deps)
	}
	return g
}

// microbenchmarks times single layers in isolation, with fixed inputs and
// iteration counts. scratch holds the disk store it writes.
func microbenchmarks(scratch string) map[string]float64 {
	out := map[string]float64{}

	for name, msg := range sampleMessages() {
		frame := codec.Marshal(msg)
		out["codec.marshal_ns."+name] = timePerOp(2000, func() { sink = codec.AppendMarshal(frame[:0], msg) })
		unmarshal := func() {
			m, err := codec.Unmarshal(frame)
			if err != nil {
				panic(fmt.Sprintf("benchmark: sample %s does not decode: %v", name, err))
			}
			sink = m
		}
		out["codec.unmarshal_ns."+name] = timePerOp(2000, unmarshal)
		out["codec.allocs_per_roundtrip."+name] = allocsPerOp(2000, func() {
			sink = codec.AppendMarshal(frame[:0], msg)
			unmarshal()
		})
	}

	payload := make([]byte, 128)
	signer := types.ReplicaNode(0)
	hm := auth.NewHMACKeyring(tcpSecret).ForNode(signer)
	token := hm.Sign(payload)
	out["auth.hmac_sign_ns"] = timePerOp(2000, func() { sink = hm.Sign(payload) })
	out["auth.hmac_verify_ns"] = timePerOp(2000, func() { sink = hm.Verify(signer, payload, token) })
	if ring, err := auth.NewECDSAKeyring(nil, []types.NodeID{signer}); err == nil {
		if ec, err := ring.ForNode(signer); err == nil {
			token := ec.Sign(payload)
			out["auth.ecdsa_sign_us"] = timePerOp(40, func() { sink = ec.Sign(payload) }) / 1e3
			out["auth.ecdsa_verify_us"] = timePerOp(40, func() { sink = ec.Verify(signer, payload, token) }) / 1e3
			cached := auth.Cached(ec, signer, nil)
			out["auth.ecdsa_verify_cached_ns"] = timePerOp(2000, func() { sink = cached.Verify(signer, payload, token) })
		}
	}

	for name, g := range map[string]*graph.DepGraph{"independent": closure(false), "chain": closure(true)} {
		out["graph.linearize_ns_per_cmd."+name] = timePerOp(200, func() { sink, _ = g.Linearize() }) / 64
	}

	record := make([]byte, 256)
	mem := store.NewMemory()
	out["store.memory_append_ns"] = timePerOp(2000, func() { sink, _ = mem.Append(1, record) })
	for _, fsync := range []bool{false, true} {
		disk, err := store.OpenDisk(filepath.Join(scratch, fmt.Sprintf("micro-fsync-%v", fsync)), fsync)
		if err != nil {
			continue // an unwritable scratch leaves the disk rows at zero
		}
		if !fsync {
			out["store.disk_append_ns"] = timePerOp(2000, func() { sink, _ = disk.Append(1, record) })
		}
		syncOnce := func() {
			sink, _ = disk.Append(1, record)
			sink = disk.Sync()
		}
		if fsync {
			out["store.disk_fsync_us"] = timePerOp(5, syncOnce) / 1e3
		} else {
			out["store.disk_sync_us"] = timePerOp(50, syncOnce) / 1e3
		}
		disk.Close()
	}
	return out
}

// printLayers prints a metric table sorted by name.
func printLayers(w io.Writer, metrics map[string]float64) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   %-48s %14.4f %s\n", name, metrics[name], layerUnit(name))
	}
}
