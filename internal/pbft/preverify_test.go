package pbft

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// pvCtx is a throwaway proc.Context for invoking handlers directly.
type pvCtx struct{}

func (pvCtx) Now() time.Duration                   { return 0 }
func (pvCtx) Send(types.NodeID, codec.Message)     {}
func (pvCtx) SetTimer(proc.TimerID, time.Duration) {}
func (pvCtx) CancelTimer(proc.TimerID)             {}
func (pvCtx) Charge(time.Duration)                 {}
func (pvCtx) Rand() *rand.Rand                     { return rand.New(rand.NewSource(0)) }

// TestPreVerifierLoopEquivalence proves the pool path and the in-loop path
// reject exactly the same corrupted PBFT frames, and that marked frames
// drive a replica to the same counters as unmarked valid ones.
func TestPreVerifierLoopEquivalence(t *testing.T) {
	ring := auth.NewHMACKeyring([]byte("pbft-preverify"))
	const n = 4
	rauth := func(id types.ReplicaID) auth.Authenticator { return ring.ForNode(types.ReplicaNode(id)) }
	cauth := func(id types.ClientID) auth.Authenticator { return ring.ForNode(types.ClientNode(id)) }

	request := func() *Request {
		m := &Request{Cmd: types.Command{Client: 5, Timestamp: 1, Op: types.OpPut, Key: "k", Value: []byte("v")}}
		m.Sig = engine.SignBody(cauth(5), m)
		return m
	}
	prePrepare := func() *PrePrepare {
		req := request()
		pp := &PrePrepare{View: 0, Seq: 1, CmdDigest: req.Cmd.Digest(), Req: *req}
		pp.Sig = engine.SignBody(rauth(0), pp)
		return pp
	}
	prepare := func() *Prepare {
		p := &Prepare{View: 0, Seq: 1, CmdDigest: request().Cmd.Digest(), Replica: 2}
		p.Sig = engine.SignBody(rauth(2), p)
		return p
	}
	commit := func() *Commit {
		c := &Commit{View: 0, Seq: 1, CmdDigest: request().Cmd.Digest(), Replica: 2}
		c.Sig = engine.SignBody(rauth(2), c)
		return c
	}
	checkpoint := func() *Checkpoint {
		ck := &Checkpoint{Seq: 128, Digest: types.Digest{1}, Replica: 2}
		ck.Sig = engine.SignBody(rauth(2), ck)
		return ck
	}
	viewChange := func() *engine.ViewChange {
		vc := &engine.ViewChange{View: 1, Replica: 2}
		vc.Sig = engine.SignBody(rauth(2), vc)
		return vc
	}

	cases := []struct {
		name  string
		mk    func() codec.Message
		valid bool
	}{
		{"request/valid", func() codec.Message { return request() }, true},
		{"request/bad-sig", func() codec.Message { m := request(); m.Sig[0] ^= 0xFF; return m }, false},
		{"preprepare/valid", func() codec.Message { return prePrepare() }, true},
		{"preprepare/bad-primary-sig", func() codec.Message { m := prePrepare(); m.Sig[0] ^= 0xFF; return m }, false},
		{"preprepare/bad-client-sig", func() codec.Message { m := prePrepare(); m.Req.Sig[0] ^= 0xFF; return m }, false},
		{"prepare/valid", func() codec.Message { return prepare() }, true},
		{"prepare/bad-sig", func() codec.Message { m := prepare(); m.Sig[0] ^= 0xFF; return m }, false},
		{"commit/valid", func() codec.Message { return commit() }, true},
		{"commit/bad-sig", func() codec.Message { m := commit(); m.Sig[0] ^= 0xFF; return m }, false},
		{"checkpoint/valid", func() codec.Message { return checkpoint() }, true},
		{"checkpoint/bad-sig", func() codec.Message { m := checkpoint(); m.Sig[0] ^= 0xFF; return m }, false},
		{"viewchange/valid", func() codec.Message { return viewChange() }, true},
		{"viewchange/bad-sig", func() codec.Message { m := viewChange(); m.Sig[0] ^= 0xFF; return m }, false},
	}

	fresh := func() *Replica {
		rep, err := NewReplica(ReplicaConfig{Self: 3, N: n, App: kvstore.New(), Auth: rauth(3)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pred := PreVerifier(rauth(3), n)
			if got := pred(tc.mk()); got != tc.valid {
				t.Fatalf("pre-verifier accepted=%v, want %v", got, tc.valid)
			}
			inLoop := fresh()
			inLoop.Receive(pvCtx{}, types.ReplicaNode(0), tc.mk())
			dropped := inLoop.Stats().DroppedInvalid > 0
			if dropped == tc.valid {
				t.Fatalf("in-loop dropped=%v, want %v", dropped, !tc.valid)
			}
			if tc.valid {
				marked := tc.mk()
				if !pred(marked) {
					t.Fatal("predicate rejected the valid frame on the marked pass")
				}
				viaPool := fresh()
				viaPool.Receive(pvCtx{}, types.ReplicaNode(0), marked)
				if got, want := viaPool.Stats(), inLoop.Stats(); got != want {
					t.Fatalf("marked delivery stats %+v != unmarked delivery stats %+v", got, want)
				}
			}
		})
	}
}
