package auth

// PEM import/export for ECDSA keyrings: the key-distribution format TCP
// deployments use. Each node receives one PEM bundle holding its own
// private key plus every node's public key; blocks carry the owning node's
// transport address in a "node" PEM header. A deployment operator generates
// one full keyring (NewECDSAKeyring), exports one bundle per node
// (ExportPEM), and distributes each bundle to its node only — the bundle a
// node holds can sign as that node and verify everyone, which is exactly
// the Authenticator contract.

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"ezbft/internal/types"
)

// PEM block types and the header naming the owning node.
const (
	pemPrivateType = "EC PRIVATE KEY"
	pemPublicType  = "PUBLIC KEY"
	pemNodeHeader  = "node"
)

// ErrUnsupportedCurve refuses key material on any curve but P-256, whose
// signatures are the only ones a 64-byte r‖s token holds.
var ErrUnsupportedCurve = errors.New("auth: unsupported curve, want P-256")

// ExportPEM serializes the keyring as one node's key bundle: self's private
// key (which must be in the ring) followed by every node's public key, in
// deterministic node order.
func (k *ECDSAKeyring) ExportPEM(self types.NodeID) ([]byte, error) {
	priv, ok := k.priv[self]
	if !ok {
		return nil, fmt.Errorf("%w: no private key for %s", ErrUnknownSigner, self)
	}
	der, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("auth: marshaling private key for %s: %w", self, err)
	}
	out := pem.EncodeToMemory(&pem.Block{
		Type:    pemPrivateType,
		Headers: map[string]string{pemNodeHeader: strconv.Itoa(int(self))},
		Bytes:   der,
	})
	nodes := make([]types.NodeID, 0, len(k.pub))
	for n := range k.pub {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		der, err := x509.MarshalPKIXPublicKey(k.pub[n])
		if err != nil {
			return nil, fmt.Errorf("auth: marshaling public key for %s: %w", n, err)
		}
		out = append(out, pem.EncodeToMemory(&pem.Block{
			Type:    pemPublicType,
			Headers: map[string]string{pemNodeHeader: strconv.Itoa(int(n))},
			Bytes:   der,
		})...)
	}
	return out, nil
}

// ParseECDSAKeyringPEM rebuilds a keyring from PEM key material produced by
// ExportPEM: any number of public-key blocks and (usually one) private-key
// blocks, each naming its node in the "node" header. A private key also
// registers the matching public key. A key on a curve other than P-256 is
// refused with ErrUnsupportedCurve.
func ParseECDSAKeyringPEM(data []byte) (*ECDSAKeyring, error) {
	k := &ECDSAKeyring{
		pub:  make(map[types.NodeID]*ecdsa.PublicKey),
		priv: make(map[types.NodeID]*ecdsa.PrivateKey),
	}
	rest := data
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		idStr, ok := block.Headers[pemNodeHeader]
		if !ok {
			return nil, fmt.Errorf("auth: %s block without %q header", block.Type, pemNodeHeader)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("auth: bad node header %q: %w", idStr, err)
		}
		node := types.NodeID(id)
		switch block.Type {
		case pemPrivateType:
			priv, err := x509.ParseECPrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("auth: parsing private key for %s: %w", node, err)
			}
			if priv.Curve != elliptic.P256() {
				return nil, fmt.Errorf("%w: private key for %s is on %s", ErrUnsupportedCurve, node, priv.Curve.Params().Name)
			}
			k.priv[node] = priv
			k.pub[node] = &priv.PublicKey
		case pemPublicType:
			pub, err := x509.ParsePKIXPublicKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("auth: parsing public key for %s: %w", node, err)
			}
			ecPub, ok := pub.(*ecdsa.PublicKey)
			if !ok {
				return nil, fmt.Errorf("auth: public key for %s is %T, want ECDSA", node, pub)
			}
			if ecPub.Curve != elliptic.P256() {
				return nil, fmt.Errorf("%w: public key for %s is on %s", ErrUnsupportedCurve, node, ecPub.Curve.Params().Name)
			}
			if _, dup := k.pub[node]; !dup {
				k.pub[node] = ecPub
			}
		default:
			return nil, fmt.Errorf("auth: unexpected PEM block type %q", block.Type)
		}
	}
	if len(k.pub) == 0 {
		return nil, fmt.Errorf("auth: no keys found in PEM material")
	}
	return k, nil
}
