package ezbft

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/types"
)

// TestTCPClusterECDSAKeys runs a full TCP deployment authenticated with
// per-node ECDSA key bundles instead of the shared HMAC secret: generate
// bundles, start four replicas on ephemeral ports, exchange addresses,
// and execute commands through a keyed client.
func TestTCPClusterECDSAKeys(t *testing.T) {
	bundles, err := GenerateTCPKeys(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 6 {
		t.Fatalf("generated %d bundles, want 6", len(bundles))
	}

	replicas := make([]*TCPReplica, 4)
	for i := range replicas {
		rep, err := StartTCPReplica(TCPReplicaConfig{
			ID:     ReplicaID(i),
			N:      4,
			Listen: "127.0.0.1:0",
			KeyPEM: bundles[fmt.Sprintf("R%d", i)],
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		replicas[i] = rep
		defer rep.Close()
	}
	addrs := make(map[ReplicaID]string, 4)
	for i, rep := range replicas {
		addrs[ReplicaID(i)] = rep.Addr()
	}
	for i, rep := range replicas {
		for j, other := range replicas {
			if i != j {
				rep.SetPeer(ReplicaID(j), other.Addr())
			}
		}
	}

	client, err := NewTCPClient(TCPClientConfig{
		ID:       0,
		N:        4,
		Nearest:  0,
		Replicas: addrs,
		KeyPEM:   bundles["c0"],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := t.Context()
	for i := 0; i < 5; i++ {
		if _, err := client.Execute(ctx, Put(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
	}
	res, err := client.Execute(ctx, Get("k0"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || string(res.Value) != "v" {
		t.Fatalf("get k0 = %+v, want v", res)
	}

	// A bundle holds only its own node's private key: claiming another
	// identity with it fails at construction.
	if _, err := NewTCPClient(TCPClientConfig{
		ID:       1, // claims identity c1...
		N:        4,
		Nearest:  1,
		Replicas: addrs,
		KeyPEM:   bundles["c0"], // ...with c0's bundle
	}); err == nil {
		t.Fatal("client constructed with another node's key bundle")
	}

	// Missing key material surfaces loudly.
	if _, err := StartTCPReplica(TCPReplicaConfig{ID: 0, N: 4}); err == nil {
		t.Fatal("replica started without secret or key material")
	}
}

// TestTCPReplicaRefusesOtherCurves: a key bundle on a curve other than
// P-256 fails StartTCPReplica with auth.ErrUnsupportedCurve, rather than
// starting a replica that cannot make a token its peers accept.
func TestTCPReplicaRefusesOtherCurves(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	bundle := pem.EncodeToMemory(&pem.Block{
		Type:    "EC PRIVATE KEY",
		Headers: map[string]string{"node": strconv.Itoa(int(types.ReplicaNode(0)))},
		Bytes:   der,
	})
	rep, err := StartTCPReplica(TCPReplicaConfig{ID: 0, N: 4, Listen: "127.0.0.1:0", KeyPEM: bundle})
	if err == nil {
		rep.Close()
		t.Fatal("replica started with a P-384 key bundle")
	}
	if !errors.Is(err, auth.ErrUnsupportedCurve) {
		t.Fatalf("StartTCPReplica returned %v, want auth.ErrUnsupportedCurve", err)
	}
}

// countedAuth counts the verifications that get past a node's memo to the
// real (ECDSA) authenticator.
type countedAuth struct {
	auth.Authenticator
	verifies *atomic.Int64
}

func (c countedAuth) Verify(signer types.NodeID, payload, token []byte) error {
	c.verifies.Add(1)
	return c.Authenticator.Verify(signer, payload, token)
}

// TestTCPECDSAVerifyMemo: over TCP every node keeps a private memo of the
// signatures it verified or produced, so a fast-path request costs the
// cluster 23 ECDSA verifications — the leader checks the REQUEST (1), three
// replicas check the SPECORDER's two signatures (6), the client checks four
// SPECREPLYs (4), and in the COMMITFAST each replica checks only the three
// other replicas' signatures (12): its own is a memo hit, and the SPECORDER
// riding in the certificate is not checked at all by a replica that knows
// the instance. Without the memo it is 27.
func TestTCPECDSAVerifyMemo(t *testing.T) {
	bundles, err := GenerateTCPKeys(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var verifies atomic.Int64
	// nodeAuth is what tcpAuthenticator builds, with the counter between
	// the memo and the ECDSA authenticator.
	nodeAuth := func(self types.NodeID) auth.Authenticator {
		bundle := bundles[self.String()]
		if a, err := tcpAuthenticator(self, nil, bundle, ""); err != nil {
			t.Fatal(err)
		} else if _, ok := a.(*auth.CachedAuth); !ok {
			t.Fatalf("ECDSA authenticator for %s is a %T, want it behind the verify memo", self, a)
		}
		ring, err := auth.ParseECDSAKeyringPEM(bundle)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := ring.ForNode(self)
		if err != nil {
			t.Fatal(err)
		}
		return tcpVerifyMemo(countedAuth{inner, &verifies}, self)
	}

	replicas := make([]*TCPReplica, 4)
	addrs := make(map[ReplicaID]string, 4)
	for i := range replicas {
		id := ReplicaID(i)
		rep, err := startTCPReplicaAuthed(TCPReplicaConfig{ID: id, N: 4}, nodeAuth(types.ReplicaNode(id)))
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		defer rep.Close()
		replicas[i] = rep
		addrs[id] = rep.Addr()
	}
	for _, rep := range replicas {
		for id, addr := range addrs {
			rep.SetPeer(id, addr)
		}
	}
	client, err := newTCPClientAuthed(TCPClientConfig{ID: 0, N: 4, Nearest: 0, Replicas: addrs}, nodeAuth(types.ClientNode(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// settled waits for the replicas to finish with the COMMITFASTs, which
	// the client sends without waiting for an answer.
	settled := func() int64 {
		last, same := verifies.Load(), 0
		for same < 10 {
			time.Sleep(20 * time.Millisecond)
			if now := verifies.Load(); now == last {
				same++
			} else {
				last, same = now, 0
			}
		}
		return last
	}
	ctx := t.Context()
	run := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := client.Execute(ctx, Put(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
				t.Fatalf("execute %d: %v", i, err)
			}
		}
	}
	run(0, 3) // connections, first-use paths
	before := settled()
	const requests = 20
	run(3, 3+requests)
	perRequest := float64(settled()-before) / requests
	if stats := client.Stats(); stats.SlowDecisions != 0 || stats.Retries != 0 {
		t.Skipf("requests left the fast path (%+v); the count below is for fast-path requests", stats)
	}
	t.Logf("%.1f ECDSA verifications per fast-path request", perRequest)
	if perRequest > 23 || perRequest < 1 {
		t.Fatalf("%.1f ECDSA verifications per fast-path request, want at most 23", perRequest)
	}

	// HMAC stays without the memo: probing it costs what the MAC costs.
	if a, err := tcpAuthenticator(types.ReplicaNode(0), []byte("secret"), nil, ""); err != nil || a.Scheme() != auth.SchemeHMAC {
		t.Fatalf("HMAC keyring produced %T (%v)", a, err)
	} else if _, ok := a.(*auth.HMACAuth); !ok {
		t.Fatalf("HMAC authenticator is a %T, want it unwrapped", a)
	}
}
