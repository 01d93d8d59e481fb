package zyzzyva

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
// reject exactly the same corrupted Zyzzyva frames, and that marked frames
// drive a replica to the same counters as unmarked valid ones.
func TestPreVerifierLoopEquivalence(t *testing.T) {
	ring := auth.NewHMACKeyring([]byte("zyzzyva-preverify"))
	const n = 4
	rauth := func(id types.ReplicaID) auth.Authenticator { return ring.ForNode(types.ReplicaNode(id)) }
	cauth := func(id types.ClientID) auth.Authenticator { return ring.ForNode(types.ClientNode(id)) }

	request := func() *Request {
		m := &Request{Cmd: types.Command{Client: 5, Timestamp: 1, Op: types.OpPut, Key: "k", Value: []byte("v")}}
		m.Sig = engine.SignBody(cauth(5), m)
		return m
	}
	orderReq := func() *OrderReq {
		req := request()
		or := &OrderReq{View: 0, Seq: 1, CmdDigest: req.Cmd.Digest(), Req: *req}
		or.HistHash = chainHash(types.Digest{}, or.CmdDigest)
		or.Sig = engine.SignBody(rauth(0), or)
		return or
	}
	specResponse := func(from types.ReplicaID) *SpecResponse {
		or := orderReq()
		sr := &SpecResponse{
			View: 0, Seq: 1,
			HistHash:  or.HistHash,
			CmdDigest: or.Req.Cmd.Digest(),
			Client:    or.Req.Cmd.Client,
			Timestamp: or.Req.Cmd.Timestamp,
			Replica:   from,
			Result:    types.Result{OK: true},
		}
		sr.Sig = engine.SignBody(rauth(from), sr)
		return sr
	}
	commitCert := func() *CommitCert {
		cert := []*SpecResponse{specResponse(0), specResponse(1), specResponse(2)}
		return &CommitCert{
			Client: 5, Timestamp: 1, Seq: 1,
			CmdDigest: cert[0].CmdDigest,
			Cert:      cert,
		}
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
		{"orderreq/valid", func() codec.Message { return orderReq() }, true},
		{"orderreq/bad-primary-sig", func() codec.Message { m := orderReq(); m.Sig[0] ^= 0xFF; return m }, false},
		{"orderreq/bad-client-sig", func() codec.Message { m := orderReq(); m.Req.Sig[0] ^= 0xFF; return m }, false},
		{"commitcert/valid", func() codec.Message { return commitCert() }, true},
		{"commitcert/bad-cert-sig", func() codec.Message { m := commitCert(); m.Cert[1].Sig[0] ^= 0xFF; return m }, false},
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
