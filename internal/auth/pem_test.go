package auth

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"strconv"
	"testing"

	"ezbft/internal/types"
)

// TestPEMRoundTrip exports per-node bundles from one keyring and verifies
// cross-bundle signing: every node signs with its own bundle and every
// other bundle verifies the signature.
func TestPEMRoundTrip(t *testing.T) {
	nodes := []types.NodeID{
		types.ReplicaNode(0), types.ReplicaNode(1),
		types.ClientNode(0), types.ClientNode(5),
	}
	ring, err := NewECDSAKeyring(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	bundles := make(map[types.NodeID][]byte, len(nodes))
	for _, n := range nodes {
		b, err := ring.ExportPEM(n)
		if err != nil {
			t.Fatalf("export %s: %v", n, err)
		}
		bundles[n] = b
	}

	payload := []byte("the signed body")
	for _, signer := range nodes {
		sring, err := ParseECDSAKeyringPEM(bundles[signer])
		if err != nil {
			t.Fatalf("parse %s: %v", signer, err)
		}
		sa, err := sring.ForNode(signer)
		if err != nil {
			t.Fatal(err)
		}
		sig := sa.Sign(payload)
		for _, verifier := range nodes {
			vring, err := ParseECDSAKeyringPEM(bundles[verifier])
			if err != nil {
				t.Fatal(err)
			}
			va, err := vring.ForNode(verifier)
			if err != nil {
				t.Fatal(err)
			}
			if err := va.Verify(signer, payload, sig); err != nil {
				t.Fatalf("%s cannot verify %s: %v", verifier, signer, err)
			}
			if err := va.Verify(signer, []byte("tampered"), sig); err == nil {
				t.Fatalf("%s accepted a tampered payload from %s", verifier, signer)
			}
		}
	}
}

// TestPEMBundleCannotImpersonate pins the key-distribution story: a node's
// bundle holds only its own private key, so it cannot sign as anyone else.
func TestPEMBundleCannotImpersonate(t *testing.T) {
	nodes := []types.NodeID{types.ReplicaNode(0), types.ClientNode(0)}
	ring, err := NewECDSAKeyring(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := ring.ExportPEM(types.ClientNode(0))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseECDSAKeyringPEM(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parsed.ForNode(types.ReplicaNode(0)); err == nil {
		t.Fatal("client bundle yielded a replica authenticator")
	}
	// The client's forged "replica" signature must not verify.
	ca, err := parsed.ForNode(types.ClientNode(0))
	if err != nil {
		t.Fatal(err)
	}
	forged := ca.Sign([]byte("body"))
	verifier, err := ring.ForNode(types.ReplicaNode(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Verify(types.ReplicaNode(0), []byte("body"), forged); err == nil {
		t.Fatal("forged replica signature verified")
	}
}

// TestPEMRejectsGarbage pins the error paths.
func TestPEMRejectsGarbage(t *testing.T) {
	if _, err := ParseECDSAKeyringPEM(nil); err == nil {
		t.Fatal("empty material parsed")
	}
	if _, err := ParseECDSAKeyringPEM(bytes.Repeat([]byte("x"), 128)); err == nil {
		t.Fatal("garbage material parsed")
	}
}

// TestPEMRefusesOtherCurves: a token is a P-256 signature's r‖s, so a bundle
// holding a key on another curve is refused when it is parsed, whether the
// key is the node's own private key or a peer's public key.
func TestPEMRefusesOtherCurves(t *testing.T) {
	self, peer := types.ReplicaNode(0), types.ReplicaNode(1)
	ring, err := NewECDSAKeyring(nil, []types.NodeID{self, peer})
	if err != nil {
		t.Fatal(err)
	}
	p256, err := ring.ExportPEM(self)
	if err != nil {
		t.Fatal(err)
	}
	p384, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	privDER, err := x509.MarshalECPrivateKey(p384)
	if err != nil {
		t.Fatal(err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&p384.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	block := func(typ string, node types.NodeID, der []byte) []byte {
		return pem.EncodeToMemory(&pem.Block{Type: typ, Headers: map[string]string{pemNodeHeader: strconv.Itoa(int(node))}, Bytes: der})
	}
	for name, bundle := range map[string][]byte{
		"own-private-key": block(pemPrivateType, self, privDER),
		"peer-public-key": append(bytes.Clone(p256), block(pemPublicType, types.ReplicaNode(2), pubDER)...),
	} {
		if _, err := ParseECDSAKeyringPEM(bundle); !errors.Is(err, ErrUnsupportedCurve) {
			t.Errorf("%s: parsing a P-384 key returned %v, want ErrUnsupportedCurve", name, err)
		}
	}
}
