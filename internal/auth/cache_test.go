package auth

import (
	"sync"
	"testing"

	"ezbft/internal/types"
)

func ecdsaPair(t *testing.T) (signer, verifier Authenticator, cache *VerifyCache) {
	t.Helper()
	nodes := []types.NodeID{types.ReplicaNode(0), types.ReplicaNode(1)}
	ring, err := NewECDSAKeyring(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ring.ForNode(types.ReplicaNode(0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := ring.ForNode(types.ReplicaNode(1))
	if err != nil {
		t.Fatal(err)
	}
	cache = NewVerifyCache(8)
	return Cached(s, types.ReplicaNode(0), cache), Cached(v, types.ReplicaNode(1), cache), cache
}

// TestCacheHitAndForgeryRejected: a verified signature is memoized, but a
// cached-verified token presented with a different body digest — the replay
// forgery the cache key must defeat — is still rejected, as is the same
// body attributed to a different signer.
func TestCacheHitAndForgeryRejected(t *testing.T) {
	signer, verifier, cache := ecdsaPair(t)
	body := []byte("specreply body")
	sig := signer.Sign(body)

	if err := verifier.Verify(types.ReplicaNode(0), body, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// Now cached; a second verification must still succeed (via the memo).
	if err := verifier.Verify(types.ReplicaNode(0), body, sig); err != nil {
		t.Fatalf("cached signature rejected: %v", err)
	}

	// Forgery: reuse the cached-verified token over a different body. The
	// cache key includes the body digest, so this must miss and fail the
	// real verification.
	if err := verifier.Verify(types.ReplicaNode(0), []byte("a different body"), sig); err == nil {
		t.Fatal("cached token accepted over a different body digest")
	}
	// Forgery: same body and token, different claimed signer.
	if err := verifier.Verify(types.ReplicaNode(1), body, sig); err == nil {
		t.Fatal("cached token accepted for a different signer")
	}
	// A tampered token over the cached body must also fail.
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xFF
	if err := verifier.Verify(types.ReplicaNode(0), body, bad); err == nil {
		t.Fatal("tampered token accepted")
	}
	if cache.Len() == 0 {
		t.Fatal("cache recorded nothing")
	}
}

// TestCacheSignSeedsVerification: signing inserts the fresh signature into
// the shared cache, so a verifier sharing the cache never runs the real
// ECDSA verification (observable through a cache sized to evict nothing).
func TestCacheSignSeedsVerification(t *testing.T) {
	signer, verifier, cache := ecdsaPair(t)
	body := []byte("seeded")
	sig := signer.Sign(body)
	if cache.Len() != 1 {
		t.Fatalf("Sign seeded %d entries, want 1", cache.Len())
	}
	if err := verifier.Verify(types.ReplicaNode(0), body, sig); err != nil {
		t.Fatalf("seeded signature rejected: %v", err)
	}
	if cache.Len() != 1 {
		t.Fatalf("verification of a seeded signature grew the cache to %d", cache.Len())
	}
}

// TestCacheBounded: the two-generation rotation keeps the cache at no more
// than ~2× capacity regardless of insert volume.
func TestCacheBounded(t *testing.T) {
	cache := NewVerifyCache(16)
	for i := 0; i < 1000; i++ {
		cache.put(cacheKey{signer: types.NodeID(i)})
	}
	if cache.Len() > 32 {
		t.Fatalf("cache grew to %d entries, capacity 16 allows at most 32", cache.Len())
	}
	// The most recent insert is always resident.
	if !cache.hit(cacheKey{signer: types.NodeID(999)}) {
		t.Fatal("most recent entry evicted")
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; the race
// detector is the assertion.
func TestCacheConcurrent(t *testing.T) {
	signer, verifier, _ := ecdsaPair(t)
	body := []byte("concurrent body")
	sig := signer.Sign(body)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := verifier.Verify(types.ReplicaNode(0), body, sig); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachePassthrough: only ECDSA goes behind the memo; Noop has nothing to
// skip and an HMAC verification costs what a memo hit does.
func TestCachePassthrough(t *testing.T) {
	if a := Cached(Noop{}, types.ReplicaNode(0), nil); a != (Noop{}) {
		t.Fatalf("Cached(Noop) = %T, want Noop", a)
	}
	h := NewHMACKeyring([]byte("passthrough")).ForNode(types.ReplicaNode(0))
	if a := Cached(h, types.ReplicaNode(0), nil); a != Authenticator(h) {
		t.Fatalf("Cached(HMAC) = %T, want the HMAC authenticator itself", a)
	}
}

// TestProviderCacheOnlyForECDSA: UseCache builds a memo only for ECDSA, the
// one scheme whose authenticators read it; for Noop and HMAC it builds
// nothing, returns nil, and the provider hands out bare authenticators.
func TestProviderCacheOnlyForECDSA(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNoop, SchemeHMAC, SchemeECDSA} {
		p, err := NewProvider(scheme, clusterNodes())
		if err != nil {
			t.Fatal(err)
		}
		cache := p.UseCache(0)
		if (cache != nil) != (scheme == SchemeECDSA) {
			t.Fatalf("%v: UseCache returned %v", scheme, cache)
		}
		if p.UseCache(0) != cache {
			t.Fatalf("%v: a second UseCache returned another cache", scheme)
		}
		a, err := p.ForNode(types.ReplicaNode(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, cached := a.(*CachedAuth); cached != (scheme == SchemeECDSA) {
			t.Fatalf("%v: ForNode returned %T", scheme, a)
		}
	}
}

// BenchmarkECDSAVerify measures the raw asymmetric verification the cache
// elides on repeats.
func BenchmarkECDSAVerify(b *testing.B) {
	nodes := []types.NodeID{types.ReplicaNode(0)}
	ring, err := NewECDSAKeyring(nil, nodes)
	if err != nil {
		b.Fatal(err)
	}
	a, err := ring.ForNode(types.ReplicaNode(0))
	if err != nil {
		b.Fatal(err)
	}
	body := []byte("benchmark body benchmark body benchmark body")
	sig := a.Sign(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Verify(types.ReplicaNode(0), body, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECDSAVerifyCached measures a cache hit: one SHA-256 plus a map
// lookup instead of an ECDSA verification.
func BenchmarkECDSAVerifyCached(b *testing.B) {
	nodes := []types.NodeID{types.ReplicaNode(0)}
	ring, err := NewECDSAKeyring(nil, nodes)
	if err != nil {
		b.Fatal(err)
	}
	inner, err := ring.ForNode(types.ReplicaNode(0))
	if err != nil {
		b.Fatal(err)
	}
	a := Cached(inner, types.ReplicaNode(0), nil)
	body := []byte("benchmark body benchmark body benchmark body")
	sig := a.Sign(body)
	if err := a.Verify(types.ReplicaNode(0), body, sig); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Verify(types.ReplicaNode(0), body, sig); err != nil {
			b.Fatal(err)
		}
	}
}
