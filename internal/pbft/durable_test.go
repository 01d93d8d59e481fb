package pbft

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// TestWALVoteRecordsReplay: CHECKPOINT votes write-ahead-logged as their
// frames (the encoding engine's TestCheckpointFramesUnchanged pins) still
// re-establish the stable checkpoint they prove when a replica recovers
// from the log.
func TestWALVoteRecordsReplay(t *testing.T) {
	st := store.NewMemory()
	for voter := 0; voter < 3; voter++ {
		frame, err := hex.DecodeString("23" + "8001" + "01" + strings.Repeat("00", 31) + fmt.Sprintf("%02x", 2*voter) + "03736967")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(walVoteKind, frame); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplica(ReplicaConfig{
		Self: 3, N: 4, App: kvstore.New(), Store: st,
		Auth: auth.NewHMACKeyring([]byte("pbft-wal")).ForNode(types.ReplicaNode(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Init(pvCtx{})
	if got := r.StableCheckpoint(); got != 128 {
		t.Fatalf("recovered stable checkpoint %d, want 128", got)
	}
	if s := r.Stats(); s.Recoveries != 1 || s.Checkpoints != 1 {
		t.Fatalf("recovery stats %+v", s)
	}
}

// TestPreparedCertSurvivesRestart: a replica that prepared a slot and
// restarts from its store still holds the 2f PREPAREs and the PRE-PREPARE
// they certify, the proof its VIEW-CHANGEs report — from the write-ahead
// log, and from the snapshot a later stable checkpoint cuts (which
// truncates the log record).
func TestPreparedCertSurvivesRestart(t *testing.T) {
	ring := auth.NewHMACKeyring([]byte("pbft-wal-cert"))
	sign := func(from types.ReplicaID, m engine.BodyMarshaler) []byte {
		return engine.SignBody(ring.ForNode(types.ReplicaNode(from)), m)
	}
	prePrepare := func(seq uint64) *PrePrepare {
		req := &Request{Cmd: types.Command{Client: 5, Timestamp: seq, Op: types.OpPut, Key: "k", Value: []byte{byte(seq)}}}
		req.Sig = engine.SignBody(ring.ForNode(types.ClientNode(5)), req)
		pp := &PrePrepare{Seq: seq, CmdDigest: req.Cmd.Digest(), Req: *req}
		pp.Sig = sign(0, pp)
		return pp
	}
	// prepare hands r a PRE-PREPARE for seq and the PREPAREs of replicas 1
	// and 2, and with commit their COMMITs too.
	prepare := func(r *Replica, seq uint64, commit bool) *PrePrepare {
		pp := prePrepare(seq)
		r.Receive(pvCtx{}, types.ReplicaNode(0), pp)
		for _, from := range []types.ReplicaID{1, 2} {
			p := &Prepare{Seq: seq, CmdDigest: pp.CmdDigest, Replica: from}
			p.Sig = sign(from, p)
			r.Receive(pvCtx{}, types.ReplicaNode(from), p)
			if commit {
				c := &Commit{Seq: seq, CmdDigest: pp.CmdDigest, Replica: from}
				c.Sig = sign(from, c)
				r.Receive(pvCtx{}, types.ReplicaNode(from), c)
			}
		}
		return pp
	}
	for _, snapshot := range []bool{false, true} {
		t.Run(map[bool]string{false: "wal", true: "snapshot"}[snapshot], func(t *testing.T) {
			st := store.NewMemory()
			replica := func() *Replica {
				r, err := NewReplica(ReplicaConfig{Self: 3, N: 4, App: kvstore.New(), Store: st, CheckpointInterval: 1,
					Auth: ring.ForNode(types.ReplicaNode(3))})
				if err != nil {
					t.Fatal(err)
				}
				r.Init(pvCtx{})
				return r
			}
			r := replica()
			seq := uint64(1)
			if snapshot {
				prepare(r, 1, true) // executes 1 and votes a checkpoint there
				seq = 2
			}
			pp := prepare(r, seq, false)
			if r.Stats().Prepared != seq {
				t.Fatal("the slot did not prepare")
			}
			if snapshot {
				app := kvstore.New()
				app.Apply(prePrepare(1).Req.Cmd)
				for _, from := range []types.ReplicaID{1, 2} {
					ck := &Checkpoint{Seq: 1, Digest: app.Digest(), Replica: from}
					ck.Sig = sign(from, ck)
					r.Receive(pvCtx{}, types.ReplicaNode(from), ck)
				}
				if data, _, _ := st.LoadSnapshot(); data == nil {
					t.Fatal("no snapshot was cut")
				}
			}
			held := replica().HeldCerts()
			if len(held) != 1 || held[0].Seq != seq || len(held[0].Cert) < 2 {
				t.Fatalf("restarted replica holds %+v, want one certificate of 2f PREPAREs at %d", held, seq)
			}
			if f, ok := held[0].Frame.(*PrePrepare); !ok || f.CmdDigest != pp.CmdDigest || string(f.Sig) != string(pp.Sig) {
				t.Fatalf("held frame %+v, want the primary's PRE-PREPARE", held[0].Frame)
			}
		})
	}
}
