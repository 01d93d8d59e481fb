package transport

import (
	"sync"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/core"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// TestVerifyPoolDeliversAndDrops: accepted messages reach the deliver
// callback, rejected ones vanish, and Close drains the queue.
func TestVerifyPoolDeliversAndDrops(t *testing.T) {
	var mu sync.Mutex
	delivered := make(map[uint64]bool)
	pool := NewVerifyPool(4,
		func(msg codec.Message) bool { return msg.(*fakeMsg).id%2 == 0 },
		func(from types.NodeID, msg codec.Message) {
			mu.Lock()
			delivered[msg.(*fakeMsg).id] = true
			mu.Unlock()
		})
	const n = 100
	for i := uint64(0); i < n; i++ {
		pool.Submit(types.ReplicaNode(1), &fakeMsg{id: i})
	}
	pool.Close()
	if len(delivered) != n/2 {
		t.Fatalf("delivered %d messages, want %d", len(delivered), n/2)
	}
	for id := range delivered {
		if id%2 != 0 {
			t.Fatalf("rejected message %d was delivered", id)
		}
	}
	// Submitting after Close must not panic (message is dropped like a
	// closing socket would drop it).
	pool.Submit(types.ReplicaNode(1), &fakeMsg{id: 2})
}

// TestVerifyPoolKeepsSenderOrder: with several workers and verifications of
// uneven length, each sender's messages are still delivered in the order it
// submitted them.
func TestVerifyPoolKeepsSenderOrder(t *testing.T) {
	senders := []types.NodeID{types.ClientNode(0), types.ClientNode(1)}
	var mu sync.Mutex
	got := make(map[types.NodeID][]uint64)
	pool := NewVerifyPool(4,
		func(msg codec.Message) bool {
			if msg.(*fakeMsg).id%2 == 0 {
				time.Sleep(200 * time.Microsecond) // lets a later message finish first on another worker
			}
			return true
		},
		func(from types.NodeID, msg codec.Message) {
			mu.Lock()
			got[from] = append(got[from], msg.(*fakeMsg).id)
			mu.Unlock()
		})
	const n = 200
	var wg sync.WaitGroup
	for _, from := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				pool.Submit(from, &fakeMsg{id: i})
			}
		}()
	}
	wg.Wait()
	pool.Close()
	for _, from := range senders {
		if len(got[from]) != n {
			t.Fatalf("sender %d: %d of %d messages delivered", from, len(got[from]), n)
		}
		for i, id := range got[from] {
			if id != uint64(i) {
				t.Fatalf("sender %d: message %d delivered at position %d", from, id, i)
			}
		}
	}
}

type fakeMsg struct{ id uint64 }

func (m *fakeMsg) Tag() uint8                { return 251 }
func (m *fakeMsg) MarshalTo(w *codec.Writer) { w.Uvarint(m.id) }

// TestVerifyPoolWithInboundVerifier runs real signed SPECORDER batches
// through the parallel verifier with ezBFT's inbound predicate: correctly
// signed batches pass and are marked, tampered ones are dropped, and
// messages of no protocol pass through untouched.
func TestVerifyPoolWithInboundVerifier(t *testing.T) {
	const n = 4
	ring := auth.NewHMACKeyring([]byte("verify-pool-test"))
	leader := ring.ForNode(types.ReplicaNode(1))
	client := ring.ForNode(types.ClientNode(3))
	verifier := ring.ForNode(types.ReplicaNode(2))

	mk := func(tamper bool) codec.Message {
		req := &core.Request{Cmd: types.Command{Client: 3, Timestamp: 7, Op: types.OpPut, Key: "k", Value: []byte("v")}, Orig: -1}
		req.Sig = engine.SignBody(client, req)
		req2 := &core.Request{Cmd: types.Command{Client: 3, Timestamp: 8, Op: types.OpIncr, Key: "k2"}, Orig: -1}
		req2.Sig = engine.SignBody(client, req2)
		so := &core.SpecOrder{
			Owner: 1, // owner number 1 of space 1 → replica 1 in a 4-cluster
			Inst:  types.InstanceID{Space: 1, Slot: 1},
			Deps:  types.NewInstanceSet(),
			Seq:   1,
			Req:   *req,
			Batch: []core.Request{*req2},
		}
		so.CmdDigest = core.BatchDigest(so.CmdDigests())
		so.Sig = engine.SignBody(leader, so)
		if tamper {
			so.Sig[0] ^= 0xFF
		}
		return so
	}

	var mu sync.Mutex
	var got []codec.Message
	pool := NewVerifyPool(2, core.InboundVerifier(verifier, n),
		func(from types.NodeID, msg codec.Message) {
			mu.Lock()
			got = append(got, msg)
			mu.Unlock()
		})
	pool.Submit(types.ReplicaNode(1), mk(false))
	pool.Submit(types.ReplicaNode(1), mk(true))
	pool.Submit(types.ReplicaNode(1), &fakeMsg{id: 9}) // non-SPECORDER passes through
	pool.Close()

	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (valid SPECORDER + passthrough)", len(got))
	}
	for _, m := range got {
		if so, ok := m.(*core.SpecOrder); ok && (so.Sig[0] == mk(true).(*core.SpecOrder).Sig[0] || !so.SigVerified()) {
			t.Fatal("tampered or unmarked SPECORDER was delivered")
		}
	}
}
