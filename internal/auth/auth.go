// Package auth provides message authentication for the protocols: a common
// Authenticator interface with no-op, HMAC (pairwise symmetric keys), and
// ECDSA P-256 implementations, mirroring the paper's use of Go's crypto
// package ("We used the HMAC and ECDSA algorithms in Go's crypto package to
// authenticate the messages exchanged by the clients and the replicas").
//
// Signatures are computed over the deterministic codec encoding of a
// message body. A Keyring holds one Authenticator per (signer, verifier)
// relationship and is shared by all nodes of a simulated cluster; live
// deployments construct per-node keyrings from distributed key material.
//
// # Cost model
//
// A verification should cost what its cryptography costs.
//
// HMAC: a keyring derives each signer's key from the master secret once and
// keeps keyed HMAC-SHA256 states for it, reused through Reset. Verify then
// computes one MAC over the payload and allocates nothing; Sign allocates
// the 32-byte token it returns. No hmac.New (two SHA-256 states plus padded
// key blocks, about a dozen allocations) runs after a signer's first use.
// Tokens are exactly HMAC(HMAC(master, signer), payload).
//
// ECDSA: a token is a P-256 signature's r and s, 32 big-endian bytes each,
// and each call allocates only what crypto/ecdsa's P-256 code allocates on
// its own (go1.24, amd64; pinned by TestECDSAAllocations):
//
//   - Verify writes the token's minimal DER form into a pooled buffer and
//     calls ecdsa.VerifyASN1: 576 B in 10 allocations per call. Going
//     through big.Int, an ASN.1 encoder and ecdsa.Verify cost 1280 B in 26.
//   - Sign makes the RFC 6979 deterministic signature ((*ecdsa.PrivateKey).
//     Sign with a nil reader) and unpacks its DER into r‖s in place: 4184 B
//     in 63 allocations and no entropy read. A randomized ecdsa.Sign plus
//     big.Int packing cost 6608 B in 72 and one getrandom call. A node's
//     token over a given body is therefore always the same.
//
// A verification still costs three orders of magnitude more than a MAC
// (about 100 us against 0.5 us), and the protocols meet the same signature
// repeatedly: the SPECORDER a replica verified on arrival comes back inside
// every commit certificate, as does the SPECREPLY it signed itself.
// VerifyCache is the memo that absorbs those: CachedAuth looks a (signer,
// payload digest, token) triple up before verifying and records successes
// and its own fresh signatures. A verification hashes the payload once,
// for the key and for an *ECDSAAuth behind the memo alike, and the key
// holds the token by value, so a hit allocates nothing (a string copy of
// the token cost one 64-byte allocation). An in-process ECDSA cluster shares one memo
// through Provider.UseCache; a TCP node keeps a private one.
//
// The memo is for ECDSA only. A probe hashes the payload with SHA-256 and
// looks the key up in a locked map, about 0.2 us, which is what the
// pre-keyed MAC costs in the first place, and a miss pays both. Cached
// therefore returns HMAC authenticators unchanged, as it does Noop, and
// Provider.UseCache builds no memo for either scheme.
package auth

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"ezbft/internal/types"
)

// Scheme selects an authentication algorithm.
type Scheme uint8

// Supported schemes.
const (
	SchemeNoop Scheme = iota + 1
	SchemeHMAC
	SchemeECDSA
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeNoop:
		return "noop"
	case SchemeHMAC:
		return "hmac"
	case SchemeECDSA:
		return "ecdsa"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// Verification errors.
var (
	ErrBadSignature  = errors.New("auth: signature verification failed")
	ErrUnknownSigner = errors.New("auth: unknown signer")
)

// Authenticator signs and verifies message bodies on behalf of one node.
type Authenticator interface {
	// Scheme identifies the algorithm.
	Scheme() Scheme
	// Sign produces an authentication token for payload, as this node.
	Sign(payload []byte) []byte
	// Verify checks a token allegedly produced by signer over payload.
	Verify(signer types.NodeID, payload, token []byte) error
}

// --- Noop ---

// Noop is an Authenticator that produces empty tokens and accepts
// everything. It isolates protocol logic from crypto cost in tests and
// ablation benchmarks.
type Noop struct{}

var _ Authenticator = Noop{}

// Scheme implements Authenticator.
func (Noop) Scheme() Scheme { return SchemeNoop }

// Sign implements Authenticator.
func (Noop) Sign([]byte) []byte { return nil }

// Verify implements Authenticator.
func (Noop) Verify(types.NodeID, []byte, []byte) error { return nil }

// --- HMAC ---

// maxHMACSigners bounds the per-signer key table of one keyring. Signer
// identifiers arrive in unauthenticated frames, so without a bound a flood
// of made-up client identifiers would grow the table without limit; at the
// bound the table is dropped wholesale and live signers are re-derived on
// their next use (two hmac.New each).
const maxHMACSigners = 1 << 14

// HMACKeyring derives pairwise symmetric keys for a cluster from a shared
// master secret. Every node holding the master secret can authenticate
// traffic from every other node. (A real deployment would provision pairwise
// keys; deriving them from a master secret keeps test setup trivial while
// exercising identical code paths.)
//
// Each signer's key is derived once and kept with pre-keyed MAC states (see
// hmacSigner), so the steady-state cost of a verification is the MAC itself.
type HMACKeyring struct {
	master []byte

	mu      sync.RWMutex
	signers map[types.NodeID]*hmacSigner
}

// NewHMACKeyring creates a keyring from a master secret.
func NewHMACKeyring(master []byte) *HMACKeyring {
	cp := make([]byte, len(master))
	copy(cp, master)
	return &HMACKeyring{master: cp, signers: make(map[types.NodeID]*hmacSigner)}
}

// keyFor derives the symmetric key a signer uses; the key depends only on
// the signer so one token authenticates a broadcast to all peers.
func (k *HMACKeyring) keyFor(signer types.NodeID) []byte {
	mac := hmac.New(sha256.New, k.master)
	var b [4]byte
	b[0] = byte(uint32(signer) >> 24)
	b[1] = byte(uint32(signer) >> 16)
	b[2] = byte(uint32(signer) >> 8)
	b[3] = byte(uint32(signer))
	mac.Write(b[:])
	return mac.Sum(nil)
}

// signer returns the signer's derived key and MAC states, deriving them on
// first use.
func (k *HMACKeyring) signer(id types.NodeID) *hmacSigner {
	k.mu.RLock()
	s := k.signers[id]
	k.mu.RUnlock()
	if s != nil {
		return s
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if s = k.signers[id]; s != nil {
		return s
	}
	if len(k.signers) >= maxHMACSigners {
		k.signers = make(map[types.NodeID]*hmacSigner)
	}
	s = &hmacSigner{key: k.keyFor(id)}
	k.signers[id] = s
	return s
}

// hmacSigner is one signer's derived key plus the keyed MAC states built
// from it. A state is taken for the length of one computation and put
// back, so concurrent callers (the verify-pool workers and the process
// loop share one HMACAuth; an in-process cluster shares one keyring) each
// work on their own; a new state is keyed only when all are in use.
type hmacSigner struct {
	key []byte

	mu   sync.Mutex
	idle []*macState
}

// macState is a keyed HMAC-SHA256 and the buffer its result lands in. The
// buffer lives beside the hash, not on the caller's stack, because a slice
// passed to hash.Hash.Sum escapes.
type macState struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

// compute returns a state holding the signer's MAC over payload in st.sum;
// the caller reads it and hands the state back with release.
func (s *hmacSigner) compute(payload []byte) *macState {
	var st *macState
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		st = s.idle[n-1]
		s.idle = s.idle[:n-1]
	}
	s.mu.Unlock()
	if st == nil {
		st = &macState{mac: hmac.New(sha256.New, s.key)}
	}
	// Reset restores the keyed state (crypto/hmac snapshots it on the first
	// call and allocates nothing afterwards).
	st.mac.Reset()
	st.mac.Write(payload)
	st.mac.Sum(st.sum[:0])
	return st
}

func (s *hmacSigner) release(st *macState) {
	s.mu.Lock()
	s.idle = append(s.idle, st)
	s.mu.Unlock()
}

// HMACAuth authenticates messages for one node using keyring-derived keys.
// It is safe for concurrent use.
type HMACAuth struct {
	ring *HMACKeyring
	self *hmacSigner
}

var _ Authenticator = (*HMACAuth)(nil)

// ForNode returns the authenticator for a specific node.
func (k *HMACKeyring) ForNode(self types.NodeID) *HMACAuth {
	return &HMACAuth{ring: k, self: k.signer(self)}
}

// Scheme implements Authenticator.
func (a *HMACAuth) Scheme() Scheme { return SchemeHMAC }

// Sign implements Authenticator. The returned token is the call's only
// allocation.
func (a *HMACAuth) Sign(payload []byte) []byte {
	st := a.self.compute(payload)
	tok := make([]byte, sha256.Size)
	copy(tok, st.sum[:])
	a.self.release(st)
	return tok
}

// Verify implements Authenticator. It allocates nothing once the signer's
// key is derived.
func (a *HMACAuth) Verify(signer types.NodeID, payload, token []byte) error {
	s := a.ring.signer(signer)
	st := s.compute(payload)
	ok := hmac.Equal(st.sum[:], token)
	s.release(st)
	if !ok {
		return fmt.Errorf("%w: hmac from %s", ErrBadSignature, signer)
	}
	return nil
}

// --- ECDSA ---

// ECDSAKeyring holds every node's public key plus this process's private
// keys. In simulation a single keyring is shared; over TCP each process
// holds only its own private key.
type ECDSAKeyring struct {
	pub  map[types.NodeID]*ecdsa.PublicKey
	priv map[types.NodeID]*ecdsa.PrivateKey
}

// NewECDSAKeyring generates fresh P-256 keypairs for the given nodes using
// the supplied entropy source (crypto/rand.Reader in production;
// deterministic readers in tests).
func NewECDSAKeyring(entropy io.Reader, nodes []types.NodeID) (*ECDSAKeyring, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	k := &ECDSAKeyring{
		pub:  make(map[types.NodeID]*ecdsa.PublicKey, len(nodes)),
		priv: make(map[types.NodeID]*ecdsa.PrivateKey, len(nodes)),
	}
	for _, n := range nodes {
		key, err := ecdsa.GenerateKey(elliptic.P256(), entropy)
		if err != nil {
			return nil, fmt.Errorf("auth: generating key for %s: %w", n, err)
		}
		k.priv[n] = key
		k.pub[n] = &key.PublicKey
	}
	return k, nil
}

// ECDSAAuth signs as one node and verifies against the keyring.
type ECDSAAuth struct {
	ring *ECDSAKeyring
	self types.NodeID
	key  *ecdsa.PrivateKey
}

var _ Authenticator = (*ECDSAAuth)(nil)

// ForNode returns the authenticator for a node; the node must have a private
// key in the ring.
func (k *ECDSAKeyring) ForNode(self types.NodeID) (*ECDSAAuth, error) {
	key, ok := k.priv[self]
	if !ok {
		return nil, fmt.Errorf("%w: no private key for %s", ErrUnknownSigner, self)
	}
	return &ECDSAAuth{ring: k, self: self, key: key}, nil
}

// Scheme implements Authenticator.
func (a *ECDSAAuth) Scheme() Scheme { return SchemeECDSA }

// tokenSize is the length of an ECDSA token: r and s of a P-256 signature,
// each as 32 big-endian bytes.
const tokenSize = 64

// maxDERSize bounds the DER form of a P-256 signature: a SEQUENCE header and
// two INTEGERs of up to 33 content bytes (32 plus a sign-padding zero).
const maxDERSize = 2 + 2*(2+33)

// Sign implements Authenticator. The signature is the RFC 6979
// deterministic one, so a node's token over a given body is always the same
// and no entropy is read.
func (a *ECDSAAuth) Sign(payload []byte) []byte {
	return a.signDigest(sha256.Sum256(payload))
}

// signDigest signs a payload given the payload's SHA-256 digest.
func (a *ECDSAAuth) signDigest(digest [sha256.Size]byte) []byte {
	der, err := a.key.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		// Only a key on a curve other than P-256 fails here, and keyrings
		// hold none (see ParseECDSAKeyringPEM); an empty token would simply
		// fail verification downstream.
		return nil
	}
	return tokenFromDER(der)
}

// Verify implements Authenticator.
func (a *ECDSAAuth) Verify(signer types.NodeID, payload, token []byte) error {
	return a.verifyDigest(signer, sha256.Sum256(payload), token)
}

// verifyDigest checks a token over a payload given the payload's SHA-256
// digest.
func (a *ECDSAAuth) verifyDigest(signer types.NodeID, digest [sha256.Size]byte, token []byte) error {
	pub, ok := a.ring.pub[signer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, signer)
	}
	if len(token) != tokenSize {
		return fmt.Errorf("%w: token length %d", ErrBadSignature, len(token))
	}
	der := derBufs.Get().(*[maxDERSize]byte)
	ok = ecdsa.VerifyASN1(pub, digest[:], appendDER(der[:0], token))
	derBufs.Put(der)
	if !ok {
		return fmt.Errorf("%w: ecdsa from %s", ErrBadSignature, signer)
	}
	return nil
}

// derBufs holds the buffers verifyDigest builds DER signatures in. To escape
// analysis crypto/ecdsa keeps its signature argument, so an array on the
// stack would move to the heap on every call; crypto/ecdsa does not in fact
// retain it, so a buffer is reused as soon as the call returns.
var derBufs = sync.Pool{New: func() any { return new([maxDERSize]byte) }}

// appendDER appends the DER form of a 64-byte r‖s token to b: a SEQUENCE of
// two INTEGERs, each in its shortest form, as crypto/ecdsa encodes (r, s)
// itself. A zero half becomes INTEGER 0, which verification refuses.
func appendDER(b, token []byte) []byte {
	r, s := derInt(token[:tokenSize/2]), derInt(token[tokenSize/2:])
	b = append(b, 0x30, byte(derIntSize(r)+derIntSize(s)))
	return appendDERInt(appendDERInt(b, r), s)
}

// derInt strips the leading zeros of a big-endian value, keeping one byte.
func derInt(v []byte) []byte {
	for len(v) > 1 && v[0] == 0 {
		v = v[1:]
	}
	return v
}

// derIntSize is the encoded size of the INTEGER appendDERInt writes for v.
func derIntSize(v []byte) int { return 2 + int(v[0]>>7) + len(v) }

// appendDERInt appends v, stripped by derInt, as a DER INTEGER.
func appendDERInt(b, v []byte) []byte {
	b = append(b, 0x02, byte(derIntSize(v)-2))
	if v[0]&0x80 != 0 {
		b = append(b, 0) // keeps the integer positive
	}
	return append(b, v...)
}

// tokenFromDER rewrites a DER signature from crypto/ecdsa — a SEQUENCE of two
// non-negative INTEGERs of at most 32 significant bytes — as the 64-byte r‖s
// token, in der's own storage when it is large enough. Anything else yields
// nil.
func tokenFromDER(der []byte) []byte {
	if len(der) < 2 || der[0] != 0x30 || int(der[1]) != len(der)-2 {
		return nil
	}
	var rs [tokenSize]byte
	rest := der[2:]
	for half := range 2 {
		if len(rest) < 2 || rest[0] != 0x02 || int(rest[1]) > len(rest)-2 {
			return nil
		}
		v := rest[2 : 2+int(rest[1])]
		rest = rest[2+int(rest[1]):]
		if len(v) == 0 || v[0]&0x80 != 0 {
			return nil
		}
		if v = derInt(v); len(v) > tokenSize/2 {
			return nil
		}
		copy(rs[(half+1)*tokenSize/2-len(v):], v)
	}
	if len(rest) != 0 {
		return nil
	}
	out := der[:0]
	if cap(out) < tokenSize {
		out = make([]byte, 0, tokenSize)
	}
	return append(out, rs[:]...)
}

// --- Provider ---

// Provider hands out authenticators for every node in a cluster. It is the
// cluster-level factory that protocol runtimes use.
type Provider struct {
	scheme Scheme
	hmac   *HMACKeyring
	ecdsa  *ECDSAKeyring
	cache  *VerifyCache
}

// NewProvider builds a provider for the given scheme covering the given
// nodes. For SchemeECDSA, keys are generated with crypto/rand.
func NewProvider(scheme Scheme, nodes []types.NodeID) (*Provider, error) {
	p := &Provider{scheme: scheme}
	switch scheme {
	case SchemeNoop:
	case SchemeHMAC:
		secret := make([]byte, 32)
		if _, err := io.ReadFull(rand.Reader, secret); err != nil {
			return nil, fmt.Errorf("auth: reading master secret: %w", err)
		}
		p.hmac = NewHMACKeyring(secret)
	case SchemeECDSA:
		ring, err := NewECDSAKeyring(nil, nodes)
		if err != nil {
			return nil, err
		}
		p.ecdsa = ring
	default:
		return nil, fmt.Errorf("auth: unsupported scheme %v", scheme)
	}
	return p, nil
}

// Scheme returns the provider's algorithm.
func (p *Provider) Scheme() Scheme { return p.scheme }

// UseCache makes every ECDSA authenticator the provider hands out share one
// verified-signature cache (capacity <= 0 selects DefaultCacheCapacity) and
// returns it. For HMAC and Noop it builds nothing and returns nil: their
// authenticators stay bare (see Cached), so a cache would never be read.
// All nodes of a provider already share key material, so a shared memo is
// sound: a broadcast frame is then verified once for the whole in-process
// cluster instead of once per recipient. Call before ForNode.
func (p *Provider) UseCache(capacity int) *VerifyCache {
	if p.scheme != SchemeECDSA {
		return nil
	}
	if p.cache == nil {
		p.cache = NewVerifyCache(capacity)
	}
	return p.cache
}

// ForNode returns the authenticator a node should use.
func (p *Provider) ForNode(n types.NodeID) (Authenticator, error) {
	a, err := p.forNode(n)
	if err != nil {
		return nil, err
	}
	if p.cache != nil {
		a = Cached(a, n, p.cache)
	}
	return a, nil
}

func (p *Provider) forNode(n types.NodeID) (Authenticator, error) {
	switch p.scheme {
	case SchemeNoop:
		return Noop{}, nil
	case SchemeHMAC:
		return p.hmac.ForNode(n), nil
	case SchemeECDSA:
		return p.ecdsa.ForNode(n)
	default:
		return nil, fmt.Errorf("auth: unsupported scheme %v", p.scheme)
	}
}
