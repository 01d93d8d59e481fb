package engine_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/engine"
	_ "ezbft/internal/fab"
	_ "ezbft/internal/pbft"
	"ezbft/internal/types"
	_ "ezbft/internal/zyzzyva"
)

// checkpointBody is ⟨CHECKPOINT, 128, d, 2⟩ with d = 01 00…00 and the
// signature "sig", in the encoding each sequenced protocol's own vote type
// wrote before the three shared one.
var checkpointBody = "8001" + "01" + strings.Repeat("00", 31) + "04" + "03" + hex.EncodeToString([]byte("sig"))

// TestCheckpointFramesUnchanged pins each sequenced protocol's CHECKPOINT
// frame byte for byte: PBFT (tag 35), Zyzzyva (48) and FaB (56) decode it
// to the shared vote and encode it back unchanged. The vote rides PBFT's
// hot path and its write-ahead log.
func TestCheckpointFramesUnchanged(t *testing.T) {
	for _, tag := range []uint8{35, 48, 56} {
		frame, err := hex.DecodeString(fmt.Sprintf("%02x", tag) + checkpointBody)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := codec.Unmarshal(frame)
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		ck, ok := msg.(*engine.Checkpoint)
		if !ok || ck.Tag() != tag || ck.Seq != 128 || ck.Digest != (types.Digest{1}) || ck.Replica != 2 || string(ck.Sig) != "sig" {
			t.Fatalf("tag %d decoded to %T %+v", tag, msg, msg)
		}
		if got := codec.Marshal(ck); !bytes.Equal(got, frame) {
			t.Fatalf("tag %d re-encodes to %x, want %x", tag, got, frame)
		}
	}
}
