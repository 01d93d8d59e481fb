package engine

import (
	"ezbft/internal/auth"
	"ezbft/internal/types"
)

// OrderingFrame is the surface a batched ordering message (PRE-PREPARE,
// ORDERREQ, PROPOSE) exposes to the shared transport-side pre-verifier:
// the frame-level signature over its body, the embedded client requests,
// and the marker that lets the owning process loop skip re-verification.
type OrderingFrame interface {
	SignedMessage
	// BatchSize returns the number of embedded requests.
	BatchSize() int
	// Signature returns the ordering signature.
	Signature() []byte
	// RequestAt returns the i'th embedded request's signer, signed body and
	// signature.
	RequestAt(i int) (client types.ClientID, body BodyMarshaler, sig []byte)
}

// VerifyFrame checks an ordering frame outside the process loop: the
// ordering signature against `signer`, then every embedded client
// signature; on success the frame is marked verified. maxBatch rejects
// frames larger than the owning protocol ever produces, so decode and
// verification agree at the boundary. Safe for concurrent use (marking is
// atomic; on the in-process mesh several recipients' pools may race on one
// shared frame, and an already-marked frame short-circuits).
func VerifyFrame(a auth.Authenticator, signer types.NodeID, f OrderingFrame, maxBatch int) bool {
	if f.BatchSize() > maxBatch {
		return false
	}
	if f.SigVerified() {
		return true
	}
	if VerifyBody(a, signer, f, f.Signature()) != nil {
		return false
	}
	for i := 0; i < f.BatchSize(); i++ {
		client, body, sig := f.RequestAt(i)
		if VerifyBody(a, types.ClientNode(client), body, sig) != nil {
			return false
		}
	}
	f.MarkSigVerified()
	return true
}
