package auth

import (
	"crypto/sha256"
	"sync"

	"ezbft/internal/types"
)

// DefaultCacheCapacity is the verified-signature memo size used when a
// caller enables caching without choosing one. At 100 bytes a key, the two
// generations of a full cache hold about 13 MB of keys — far more entries
// than a cluster keeps in flight.
const DefaultCacheCapacity = 1 << 16

// cacheKey identifies one verification: who allegedly signed, the digest of
// the exact bytes the signature covers, and the signature itself. All three
// take part in the key, so a signature that verified for one body can never
// vouch for a different body (a forgery with a reused token misses the
// cache and fails the real verification), and a body signed by one node can
// never be replayed as another's. The token is held by value: only tokens
// of the ECDSA length are memoized.
type cacheKey struct {
	signer types.NodeID
	digest [sha256.Size]byte
	sig    [tokenSize]byte
}

// VerifyCache is a bounded, concurrency-safe memo of signature
// verifications that already succeeded. The same signature tends to arrive
// many times — a SPECREPLY reappears in several clients' commit
// certificates, duplicate slow-path certificates carry the same 2f+1
// replies, retransmissions repeat whole frames, and owner-change proofs
// embed SPECORDERs the replica verified when they first arrived — and each
// reappearance costs a full ECDSA verification without the memo.
//
// Only successes are cached (a failure is already cheap to reproduce and
// caching it would let one malformed arrival censor a later valid one).
// Boundedness uses two generations: inserts go to the current generation,
// lookups consult both, and when the current generation fills it becomes
// the previous one — a wholesale eviction that keeps the hot working set
// resident, paid once per generation.
type VerifyCache struct {
	mu       sync.RWMutex
	capacity int
	cur      map[cacheKey]struct{}
	prev     map[cacheKey]struct{}
}

// NewVerifyCache creates a cache holding at most ~2×capacity entries
// (capacity <= 0 selects DefaultCacheCapacity).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &VerifyCache{
		capacity: capacity,
		cur:      make(map[cacheKey]struct{}, capacity),
	}
}

// hit reports whether the exact (signer, payload, token) triple verified
// before.
func (c *VerifyCache) hit(k cacheKey) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.cur[k]; ok {
		return true
	}
	_, ok := c.prev[k]
	return ok
}

// put records a successful verification, rotating generations at capacity.
func (c *VerifyCache) put(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cur) >= c.capacity {
		c.prev = c.cur
		c.cur = make(map[cacheKey]struct{}, c.capacity)
	}
	c.cur[k] = struct{}{}
}

// Len returns the number of resident entries (both generations).
func (c *VerifyCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cur) + len(c.prev)
}

// CachedAuth wraps an Authenticator with a VerifyCache: Verify consults the
// memo before running the underlying (expensive, for ECDSA) check and
// memoizes successes; Sign additionally seeds the memo with the node's own
// fresh signature, so a replica later validating a certificate that embeds
// its own SPECREPLY — or a commit certificate carrying the SPECORDER it
// already verified — pays a hash lookup instead of an ECDSA verification.
// Several nodes of one trust domain (an in-process cluster sharing a
// keyring) may share one cache; the memo only ever asserts facts that are
// receiver-independent.
//
// A signature or a verification hashes the payload once: the digest that
// keys the memo is the one an *ECDSAAuth signs or checks the signature
// over. Any other inner authenticator is handed the payload and hashes it
// again.
type CachedAuth struct {
	inner Authenticator
	ecdsa *ECDSAAuth // inner, when it is one; else nil
	self  types.NodeID
	cache *VerifyCache
}

var _ Authenticator = (*CachedAuth)(nil)

// Cached wraps a for node self with the given cache (nil cache creates a
// private one with DefaultCacheCapacity). Only ECDSA is worth a memo: Noop
// has nothing to skip, and an HMAC verification costs what a memo hit does
// (see the package comment), so both are returned unchanged.
func Cached(a Authenticator, self types.NodeID, cache *VerifyCache) Authenticator {
	if a == nil || a.Scheme() != SchemeECDSA {
		return a
	}
	if cache == nil {
		cache = NewVerifyCache(0)
	}
	e, _ := a.(*ECDSAAuth)
	return &CachedAuth{inner: a, ecdsa: e, self: self, cache: cache}
}

// Scheme implements Authenticator.
func (a *CachedAuth) Scheme() Scheme { return a.inner.Scheme() }

// Unwrap returns the underlying authenticator.
func (a *CachedAuth) Unwrap() Authenticator { return a.inner }

// Sign implements Authenticator; the fresh signature is seeded into the
// cache as already-verified (signing with our own key proves it verifies).
func (a *CachedAuth) Sign(payload []byte) []byte {
	k := cacheKey{signer: a.self, digest: sha256.Sum256(payload)}
	var sig []byte
	if a.ecdsa != nil {
		sig = a.ecdsa.signDigest(k.digest)
	} else {
		sig = a.inner.Sign(payload)
	}
	if len(sig) == tokenSize {
		copy(k.sig[:], sig)
		a.cache.put(k)
	}
	return sig
}

// Verify implements Authenticator: a memo hit costs one SHA-256 of the
// payload and allocates nothing; a miss runs the real verification over the
// same digest and memoizes success. A token of any length but the ECDSA
// one bypasses the memo.
func (a *CachedAuth) Verify(signer types.NodeID, payload, token []byte) error {
	if len(token) != tokenSize {
		return a.inner.Verify(signer, payload, token)
	}
	k := cacheKey{signer: signer, digest: sha256.Sum256(payload)}
	copy(k.sig[:], token)
	if a.cache.hit(k) {
		return nil
	}
	var err error
	if a.ecdsa != nil {
		err = a.ecdsa.verifyDigest(signer, k.digest, token)
	} else {
		err = a.inner.Verify(signer, payload, token)
	}
	if err != nil {
		return err
	}
	a.cache.put(k)
	return nil
}
