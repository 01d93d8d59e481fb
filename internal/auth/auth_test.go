package auth

import (
	"testing"

	"ezbft/internal/types"
)

func clusterNodes() []types.NodeID {
	return []types.NodeID{
		types.ReplicaNode(0), types.ReplicaNode(1),
		types.ReplicaNode(2), types.ReplicaNode(3),
		types.ClientNode(0),
	}
}

func TestNoop(t *testing.T) {
	a := Noop{}
	tok := a.Sign([]byte("payload"))
	if err := a.Verify(types.ReplicaNode(0), []byte("anything"), tok); err != nil {
		t.Fatal(err)
	}
}

func TestHMACSignVerify(t *testing.T) {
	ring := NewHMACKeyring([]byte("master-secret"))
	signer := ring.ForNode(types.ReplicaNode(0))
	verifier := ring.ForNode(types.ReplicaNode(1))

	payload := []byte("the message body")
	tok := signer.Sign(payload)
	if err := verifier.Verify(types.ReplicaNode(0), payload, tok); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
	if err := verifier.Verify(types.ReplicaNode(2), payload, tok); err == nil {
		t.Fatal("token attributed to wrong signer accepted")
	}
	if err := verifier.Verify(types.ReplicaNode(0), []byte("tampered"), tok); err == nil {
		t.Fatal("tampered payload accepted")
	}
	tampered := append([]byte(nil), tok...)
	tampered[0] ^= 0xFF
	if err := verifier.Verify(types.ReplicaNode(0), payload, tampered); err == nil {
		t.Fatal("tampered token accepted")
	}
}

func TestHMACKeyringIsolation(t *testing.T) {
	ring1 := NewHMACKeyring([]byte("secret-1"))
	ring2 := NewHMACKeyring([]byte("secret-2"))
	tok := ring1.ForNode(types.ReplicaNode(0)).Sign([]byte("m"))
	if err := ring2.ForNode(types.ReplicaNode(1)).Verify(types.ReplicaNode(0), []byte("m"), tok); err == nil {
		t.Fatal("token crossed keyrings")
	}
}

func TestECDSASignVerify(t *testing.T) {
	ring, err := NewECDSAKeyring(nil, clusterNodes())
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ring.ForNode(types.ReplicaNode(0))
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := ring.ForNode(types.ClientNode(0))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("spec-order body")
	tok := signer.Sign(payload)
	if len(tok) != 64 {
		t.Fatalf("token length %d, want 64", len(tok))
	}
	if err := verifier.Verify(types.ReplicaNode(0), payload, tok); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := verifier.Verify(types.ReplicaNode(1), payload, tok); err == nil {
		t.Fatal("signature attributed to wrong signer accepted")
	}
	if err := verifier.Verify(types.ReplicaNode(0), []byte("other"), tok); err == nil {
		t.Fatal("signature over different payload accepted")
	}
	if err := verifier.Verify(types.ReplicaNode(0), payload, tok[:10]); err == nil {
		t.Fatal("malformed token accepted")
	}
	if err := verifier.Verify(types.NodeID(99), payload, tok); err == nil {
		t.Fatal("unknown signer accepted")
	}
}

func TestProviderSchemes(t *testing.T) {
	nodes := clusterNodes()
	for _, scheme := range []Scheme{SchemeNoop, SchemeHMAC, SchemeECDSA} {
		p, err := NewProvider(scheme, nodes)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if p.Scheme() != scheme {
			t.Fatalf("scheme = %v, want %v", p.Scheme(), scheme)
		}
		a, err := p.ForNode(types.ReplicaNode(0))
		if err != nil {
			t.Fatalf("%v ForNode: %v", scheme, err)
		}
		b, err := p.ForNode(types.ReplicaNode(1))
		if err != nil {
			t.Fatalf("%v ForNode: %v", scheme, err)
		}
		payload := []byte("xyz")
		if err := b.Verify(types.ReplicaNode(0), payload, a.Sign(payload)); err != nil {
			t.Fatalf("%v: cross-node verify failed: %v", scheme, err)
		}
	}
}

func TestProviderUnknownScheme(t *testing.T) {
	if _, err := NewProvider(Scheme(0), nil); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

// BenchmarkECDSASign measures one signature over a typical message body.
func BenchmarkECDSASign(b *testing.B) {
	_, a := testSigner(b)
	body := []byte("benchmark body benchmark body benchmark body")
	b.ReportAllocs()
	for b.Loop() {
		a.Sign(body)
	}
}
