package pbft_test

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/codec"
	"ezbft/internal/pbft"
	"ezbft/internal/types"
)

// singlePuts builds one single-PUT script per client on per-client keys.
func singlePuts(clients int) [][]types.Command {
	out := make([][]types.Command, clients)
	for c := range out {
		out[c] = []types.Command{{Op: types.OpPut, Key: fmt.Sprintf("bk%d", c), Value: []byte("v")}}
	}
	return out
}

// TestPrimaryBatching: eight clients with BatchSize 4 all commit, and the
// primary provably coalesced them — fewer PRE-PREPAREs than commands, one
// primary signature per batch — while every replica executes every
// command and converges.
func TestPrimaryBatching(t *testing.T) {
	const clients = 8
	spec := &bench.Spec{BatchSize: 4, BatchDelay: 30 * time.Millisecond}
	cluster, drivers := harness(t, spec, singlePuts(clients))
	runUntilDone(t, cluster, drivers, 30*time.Second)
	cluster.RT.Run(cluster.RT.Now() + time.Second)

	primary := cluster.PBReplicas[0]
	if pp := primary.Stats().PrePrepares; pp == 0 || pp >= clients {
		t.Fatalf("no batching: %d PRE-PREPAREs for %d commands", pp, clients)
	}
	for i, r := range cluster.PBReplicas {
		if got := r.Stats().Executed; got != clients {
			t.Fatalf("replica %d executed %d commands, want %d", i, got, clients)
		}
	}
	requireConvergence(t, cluster, nil)
}

// TestBatchedPrePrepareWire pins the batched PRE-PREPARE wire layout and
// that batches of one keep the original tag (and byte layout).
func TestBatchedPrePrepareWire(t *testing.T) {
	reqA := pbft.Request{Cmd: types.Command{Client: 1, Timestamp: 1, Op: types.OpPut, Key: "a"}, Sig: []byte{1}}
	reqB := pbft.Request{Cmd: types.Command{Client: 2, Timestamp: 1, Op: types.OpIncr, Key: "b"}, Sig: []byte{2}}
	single := &pbft.PrePrepare{View: 1, Seq: 2, CmdDigest: reqA.Cmd.Digest(), Req: reqA, Sig: []byte{9}}
	batched := &pbft.PrePrepare{View: 1, Seq: 2, Req: reqA, Batch: []pbft.Request{reqB}, Sig: []byte{9}}
	if single.Tag() == batched.Tag() {
		t.Fatal("batched PRE-PREPARE must use its own tag")
	}
	for _, m := range []codec.Message{single, batched} {
		out, err := codec.Unmarshal(codec.Marshal(m))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if string(codec.Marshal(out)) != string(codec.Marshal(m)) {
			t.Fatalf("tag %d: round trip not byte-identical", m.Tag())
		}
	}
}

// TestBatchSizeValidation: oversized batches are rejected at construction.
func TestBatchSizeValidation(t *testing.T) {
	_, err := pbft.NewReplica(pbft.ReplicaConfig{N: 4, BatchSize: 1 << 20})
	if err == nil {
		t.Fatal("accepted an oversized batch size")
	}
}
