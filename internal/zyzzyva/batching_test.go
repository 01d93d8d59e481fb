package zyzzyva_test

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/codec"
	"ezbft/internal/types"
	"ezbft/internal/zyzzyva"
)

// signedBody returns the bytes m's signature covers.
func signedBody(m interface{ MarshalBody(*codec.Writer) }) string {
	w := codec.NewWriter(64)
	m.MarshalBody(w)
	return string(w.Bytes())
}

// singlePuts builds one single-PUT script per client on per-client keys.
func singlePuts(clients int) [][]types.Command {
	out := make([][]types.Command, clients)
	for c := range out {
		out[c] = []types.Command{{Op: types.OpPut, Key: fmt.Sprintf("bk%d", c), Value: []byte("v")}}
	}
	return out
}

// TestPrimaryBatchingFastPath: eight clients with BatchSize 4 all commit
// on the speculative fast path, and the primary provably coalesced them —
// fewer sequence numbers than commands, one ORDERREQ signature and one
// history-chain link per batch.
func TestPrimaryBatchingFastPath(t *testing.T) {
	const clients = 8
	spec := &bench.Spec{BatchSize: 4, BatchDelay: 30 * time.Millisecond}
	cluster, drivers := harness(t, spec, singlePuts(clients))
	runUntilDone(t, cluster, drivers, 30*time.Second)
	cluster.RT.Run(cluster.RT.Now() + time.Second)

	for i, d := range drivers {
		if len(d.Results) != 1 || !d.Results[0].FastPath {
			t.Fatalf("client %d: results %+v, want one fast-path completion", i, d.Results)
		}
	}
	primary := cluster.ZYReplicas[0]
	if seqs := primary.MaxExecuted(); seqs == 0 || seqs >= clients {
		t.Fatalf("no batching: %d sequence numbers for %d commands", seqs, clients)
	}
	for i, r := range cluster.ZYReplicas {
		if got := r.Stats().SpecExecuted; got != clients {
			t.Fatalf("replica %d spec-executed %d commands, want %d", i, got, clients)
		}
	}
	for i := 1; i < 4; i++ {
		if cluster.Apps[i].Digest() != cluster.Apps[0].Digest() {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

// TestBatchedCommitCertSlowPath: with one backup mute the fast quorum is
// unreachable, so clients of a batched assignment fall back to the
// commit-certificate path; the per-command batch position signed into
// every SPECRESPONSE lets replicas answer each certificate with the right
// command's result.
func TestBatchedCommitCertSlowPath(t *testing.T) {
	const clients = 6
	spec := &bench.Spec{
		BatchSize:  3,
		BatchDelay: 30 * time.Millisecond,
		Mute:       map[types.ReplicaID]bool{3: true},
	}
	cluster, drivers := harness(t, spec, singlePuts(clients))
	runUntilDone(t, cluster, drivers, 60*time.Second)
	cluster.RT.Run(cluster.RT.Now() + time.Second)

	for i, d := range drivers {
		if len(d.Results) != 1 || d.Results[0].FastPath {
			t.Fatalf("client %d: results %+v, want one slow-path completion", i, d.Results)
		}
		if !d.Results[0].Result.OK {
			t.Fatalf("client %d: command failed", i)
		}
	}
	for i, r := range cluster.ZYReplicas[:3] {
		if r.Stats().LocalCommits == 0 {
			t.Fatalf("replica %d sent no LOCALCOMMITs", i)
		}
	}
	for i := 1; i < 3; i++ {
		if cluster.Apps[i].Digest() != cluster.Apps[0].Digest() {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

// TestBatchedOrderReqWire pins the batched ORDERREQ and SPECRESPONSE wire
// layouts, that batches of one keep the original tags, and that the batch
// position is covered by the response signature.
func TestBatchedOrderReqWire(t *testing.T) {
	reqA := zyzzyva.Request{Cmd: types.Command{Client: 1, Timestamp: 1, Op: types.OpPut, Key: "a"}, Sig: []byte{1}}
	reqB := zyzzyva.Request{Cmd: types.Command{Client: 2, Timestamp: 1, Op: types.OpIncr, Key: "b"}, Sig: []byte{2}}
	single := &zyzzyva.OrderReq{View: 1, Seq: 2, CmdDigest: reqA.Cmd.Digest(), Req: reqA, Sig: []byte{9}}
	batched := &zyzzyva.OrderReq{View: 1, Seq: 2, Req: reqA, Batch: []zyzzyva.Request{reqB}, Sig: []byte{9}}
	if single.Tag() == batched.Tag() {
		t.Fatal("batched ORDERREQ must use its own tag")
	}
	respSingle := &zyzzyva.SpecResponse{View: 1, Seq: 2, CmdDigest: reqA.Cmd.Digest(), Client: 1, Timestamp: 1, Sig: []byte{3}}
	respBatched := &zyzzyva.SpecResponse{View: 1, Seq: 2, CmdDigest: reqB.Cmd.Digest(), Client: 2, Timestamp: 1, Batched: true, BatchIdx: 1, Sig: []byte{3}}
	if respSingle.Tag() == respBatched.Tag() {
		t.Fatal("batched SPECRESPONSE must use its own tag")
	}
	cert := &zyzzyva.CommitCert{Client: 2, Timestamp: 1, Seq: 2, CmdDigest: respBatched.CmdDigest, Cert: []*zyzzyva.SpecResponse{respBatched}}
	for _, m := range []codec.Message{single, batched, respSingle, respBatched, cert} {
		out, err := codec.Unmarshal(codec.Marshal(m))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if string(codec.Marshal(out)) != string(codec.Marshal(m)) {
			t.Fatalf("tag %d: round trip not byte-identical", m.Tag())
		}
	}

	// The batch index must be covered by the response signature.
	r0 := *respBatched
	r1 := *respBatched
	r1.BatchIdx = 2
	if signedBody(&r0) == signedBody(&r1) {
		t.Fatal("batch index not covered by the response signature")
	}
}
