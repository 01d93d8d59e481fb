package pbft

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ezbft/internal/auth"
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
