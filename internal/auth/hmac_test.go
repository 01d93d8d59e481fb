package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

// referenceToken is the textbook computation the pre-keyed path must equal
// bit for bit: key = HMAC(master, signer as 4 big-endian bytes), token =
// HMAC(key, payload), each from a fresh hmac.New.
func referenceToken(master []byte, signer types.NodeID, payload []byte) []byte {
	var id [4]byte
	binary.BigEndian.PutUint32(id[:], uint32(signer))
	kd := hmac.New(sha256.New, master)
	kd.Write(id[:])
	mac := hmac.New(sha256.New, kd.Sum(nil))
	mac.Write(payload)
	return mac.Sum(nil)
}

func TestHMACTokensMatchReference(t *testing.T) {
	master := []byte("reference-master")
	ring := NewHMACKeyring(master)
	for _, signer := range []types.NodeID{types.ReplicaNode(0), types.ReplicaNode(3), types.ClientNode(0), types.ClientNode(41)} {
		a := ring.ForNode(signer)
		// Repeated and differently sized payloads: a reused state must not
		// carry anything over from the previous computation.
		for _, payload := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte("spec-order"), 40), []byte("a")} {
			want := referenceToken(master, signer, payload)
			if got := a.Sign(payload); !bytes.Equal(got, want) {
				t.Fatalf("%s: token over %d bytes differs from reference", signer, len(payload))
			}
			if err := ring.ForNode(types.ReplicaNode(1)).Verify(signer, payload, want); err != nil {
				t.Fatalf("%s: reference token rejected: %v", signer, err)
			}
		}
	}
}

func TestHMACRejects(t *testing.T) {
	ring := NewHMACKeyring([]byte("reject-master"))
	signer := types.ClientNode(7)
	payload := []byte("request body")
	tok := ring.ForNode(signer).Sign(payload)
	v := ring.ForNode(types.ReplicaNode(2))
	flipped := append([]byte(nil), tok...)
	flipped[len(flipped)-1] ^= 1
	for name, tc := range map[string]struct {
		signer  types.NodeID
		payload []byte
		token   []byte
	}{
		"wrong signer":     {types.ClientNode(8), payload, tok},
		"tampered payload": {signer, []byte("request bodz"), tok},
		"tampered token":   {signer, payload, flipped},
		"truncated token":  {signer, payload, tok[:31]},
		"extended token":   {signer, payload, append(append([]byte(nil), tok...), 0)},
		"empty token":      {signer, payload, nil},
	} {
		err := v.Verify(tc.signer, tc.payload, tc.token)
		if !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: got %v, want ErrBadSignature", name, err)
		}
	}
	// A rejection leaves the signer's state usable.
	if err := v.Verify(signer, payload, tok); err != nil {
		t.Fatalf("valid token rejected after failures: %v", err)
	}
}

// TestHMACAllocations pins the cost model: once a signer's key is derived a
// verification allocates nothing (so no hmac.New, which allocates), and a
// signature only the token it returns.
func TestHMACAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ring := NewHMACKeyring([]byte("alloc-master"))
	signer, client := types.ReplicaNode(0), types.ClientNode(3)
	a := ring.ForNode(signer)
	v := ring.ForNode(types.ReplicaNode(1))
	payload := bytes.Repeat([]byte("x"), 300)
	tok := a.Sign(payload)
	ctok := ring.ForNode(client).Sign(payload)
	if n := testing.AllocsPerRun(200, func() {
		if v.Verify(signer, payload, tok) != nil || v.Verify(client, payload, ctok) != nil {
			t.Fatal("valid token rejected")
		}
	}); n != 0 {
		t.Errorf("Verify allocates %v times per two calls, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { a.Sign(payload) }); n > 1 {
		t.Errorf("Sign allocates %v times per call, want <= 1", n)
	}
}

// TestHMACSignerTableBounded floods a keyring with made-up signers, as a
// peer sending frames with arbitrary client identifiers can.
func TestHMACSignerTableBounded(t *testing.T) {
	ring := NewHMACKeyring([]byte("bound-master"))
	a := ring.ForNode(types.ReplicaNode(0))
	payload := []byte("p")
	tok := a.Sign(payload)
	for i := 0; i < maxHMACSigners+10; i++ {
		_ = a.Verify(types.ClientNode(types.ClientID(i)), payload, tok)
	}
	if n := len(ring.signers); n > maxHMACSigners {
		t.Fatalf("signer table holds %d entries, bound is %d", n, maxHMACSigners)
	}
	if err := a.Verify(types.ReplicaNode(0), payload, tok); err != nil {
		t.Fatalf("own token rejected after the table was dropped: %v", err)
	}
}

// TestHMACConcurrentVerify is the verify pool's usage: several goroutines
// share one HMACAuth and verify interleaved signers. Run with -race.
func TestHMACConcurrentVerify(t *testing.T) {
	ring := NewHMACKeyring([]byte("concurrent-master"))
	shared := ring.ForNode(types.ReplicaNode(0))
	signers := []types.NodeID{types.ReplicaNode(0), types.ReplicaNode(1), types.ReplicaNode(2), types.ClientNode(0), types.ClientNode(1)}
	type signed struct {
		signer  types.NodeID
		payload []byte
		token   []byte
	}
	var msgs []signed
	for i := 0; i < 40; i++ {
		s := signers[i%len(signers)]
		p := []byte(fmt.Sprintf("message %d from %s", i, s))
		msgs = append(msgs, signed{s, p, ring.ForNode(s).Sign(p)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := range msgs {
					m := msgs[(i+g)%len(msgs)]
					if err := shared.Verify(m.signer, m.payload, m.token); err != nil {
						t.Errorf("goroutine %d: valid token rejected: %v", g, err)
						return
					}
					other := msgs[(i+g+1)%len(msgs)]
					if shared.Verify(m.signer, other.payload, m.token) == nil {
						t.Errorf("goroutine %d: token accepted over another payload", g)
						return
					}
					if g%2 == 0 && !bytes.Equal(shared.Sign(m.payload), referenceToken([]byte("concurrent-master"), types.ReplicaNode(0), m.payload)) {
						t.Errorf("goroutine %d: concurrent Sign differs from reference", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
