package auth

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/sha256"
	"math/big"
	"testing"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

// testSigner is the one ECDSA identity the tests below sign and verify as.
func testSigner(t testing.TB) (types.NodeID, *ECDSAAuth) {
	t.Helper()
	signer := types.ReplicaNode(0)
	ring, err := NewECDSAKeyring(nil, []types.NodeID{signer})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ring.ForNode(signer)
	if err != nil {
		t.Fatal(err)
	}
	return signer, a
}

// FuzzECDSAToken checks ECDSAAuth against the standard library's reference:
// for any payload and token, Verify accepts exactly when ecdsa.Verify does
// on the token's halves decoded as big-endian integers (a token of any
// length but 64 is refused), and the memo in front of it changes no
// verdict. With xor set, the token is applied as a mask to the payload's
// own signature, so the search starts from valid tokens; the seed corpus
// adds r or s of 0, N and above. Every signature Sign makes verifies, is the
// same on every call (RFC 6979), and is the standard library's DER
// signature, re-encoded both ways.
func FuzzECDSAToken(f *testing.F) {
	signer, a := testSigner(f)
	pub := &a.key.PublicKey
	cached := Cached(a, signer, NewVerifyCache(64))
	f.Fuzz(func(t *testing.T, payload, token []byte, xor bool) {
		tok := a.Sign(payload)
		if len(tok) != tokenSize {
			t.Fatalf("Sign returned a %d-byte token", len(tok))
		}
		if a.Verify(signer, payload, tok) != nil {
			t.Fatal("Sign's own token does not verify")
		}
		if again := a.Sign(payload); !bytes.Equal(again, tok) {
			t.Fatalf("two signatures over one payload differ: %x, %x", tok, again)
		}
		digest := sha256.Sum256(payload)
		der, err := a.key.Sign(nil, digest[:], crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		if enc := appendDER(nil, tok); !bytes.Equal(enc, der) {
			t.Fatalf("token %x encodes as %x, crypto/ecdsa signed %x", tok, enc, der)
		}
		if back := tokenFromDER(bytes.Clone(der)); !bytes.Equal(back, tok) {
			t.Fatalf("DER %x decodes as %x, want %x", der, back, tok)
		}

		if xor {
			mask := token
			token = bytes.Clone(tok)
			for i := range min(len(mask), tokenSize) {
				token[i] ^= mask[i]
			}
		}
		want := false
		if len(token) == tokenSize {
			r := new(big.Int).SetBytes(token[:tokenSize/2])
			s := new(big.Int).SetBytes(token[tokenSize/2:])
			want = ecdsa.Verify(pub, digest[:], r, s)
		}
		if got := a.Verify(signer, payload, token) == nil; got != want {
			t.Fatalf("Verify(%x) = %v, crypto/ecdsa says %v", token, got, want)
		}
		for range 2 { // a miss, then a memo hit if it verified
			if got := cached.Verify(signer, payload, token) == nil; got != want {
				t.Fatalf("memoized Verify(%x) = %v, crypto/ecdsa says %v", token, got, want)
			}
		}
	})
}

// TestECDSAAllocations: signing and verifying allocate no more than the
// standard library's P-256 calls they wrap do on their own, and a memo hit
// allocates nothing.
func TestECDSAAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	signer, a := testSigner(t)
	payload := bytes.Repeat([]byte("x"), 300)
	digest := sha256.Sum256(payload)
	tok := a.Sign(payload)
	der := appendDER(nil, tok)

	stdVerify := testing.AllocsPerRun(100, func() {
		if !ecdsa.VerifyASN1(&a.key.PublicKey, digest[:], der) {
			t.Fatal("crypto/ecdsa rejected a valid signature")
		}
	})
	verify := testing.AllocsPerRun(100, func() {
		if a.Verify(signer, payload, tok) != nil {
			t.Fatal("valid signature rejected")
		}
	})
	stdSign := testing.AllocsPerRun(100, func() {
		if _, err := a.key.Sign(nil, digest[:], crypto.SHA256); err != nil {
			t.Fatal(err)
		}
	})
	sign := testing.AllocsPerRun(100, func() { a.Sign(payload) })
	t.Logf("allocations per call: Verify %v (ecdsa.VerifyASN1 %v), Sign %v (PrivateKey.Sign %v)", verify, stdVerify, sign, stdSign)
	if verify > stdVerify {
		t.Errorf("Verify allocates %v times per call, ecdsa.VerifyASN1 %v", verify, stdVerify)
	}
	if sign > stdSign {
		t.Errorf("Sign allocates %v times per call, PrivateKey.Sign %v", sign, stdSign)
	}

	cached := Cached(a, signer, nil)
	if cached.Verify(signer, payload, tok) != nil {
		t.Fatal("valid signature rejected")
	}
	if n := testing.AllocsPerRun(100, func() {
		if cached.Verify(signer, payload, tok) != nil {
			t.Fatal("memoized signature rejected")
		}
	}); n != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", n)
	}
}
