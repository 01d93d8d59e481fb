package engine

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// The signing contract every protocol in this repository follows: a
// signature covers the deterministic codec encoding of a message's body —
// the message without its own signature fields — which the message writes
// through MarshalBody. Signing and verifying encode that body into a pooled
// codec.Writer, so apart from the authenticator's own token a signature
// costs no allocation, and no message keeps a second, allocating copy of
// its body encoding.

// BodyMarshaler is implemented by every signed message.
type BodyMarshaler interface {
	// MarshalBody writes the bytes the message's signature covers.
	MarshalBody(w *codec.Writer)
}

// SignBody signs m's body.
func SignBody(a auth.Authenticator, m BodyMarshaler) []byte {
	w := codec.GetWriter()
	m.MarshalBody(w)
	sig := a.Sign(w.Bytes())
	codec.PutWriter(w)
	return sig
}

// VerifyBody checks sig over m's body against signer.
func VerifyBody(a auth.Authenticator, signer types.NodeID, m BodyMarshaler, sig []byte) error {
	w := codec.GetWriter()
	m.MarshalBody(w)
	err := a.Verify(signer, w.Bytes(), sig)
	codec.PutWriter(w)
	return err
}

// SignedMessage is any wire message carrying one signature over its body,
// with a transport-side verification marker (codec.Verified embedded in the
// concrete type).
type SignedMessage interface {
	BodyMarshaler
	// MarkSigVerified marks the message as transport-verified.
	MarkSigVerified()
	// SigVerified reports whether the message was already marked.
	SigVerified() bool
}

// VerifySigned checks one signed message outside the process loop against
// its claimed signer and marks it on success — the single-signature
// counterpart of VerifyFrame, shared by every protocol's inbound
// pre-verifier. It reports whether the message should be delivered; use it
// only for signatures the receiving loop checks unconditionally (a false
// return drops the message).
func VerifySigned(a auth.Authenticator, signer types.NodeID, m SignedMessage, sig []byte) bool {
	if m.SigVerified() {
		return true
	}
	if VerifyBody(a, signer, m, sig) != nil {
		return false
	}
	m.MarkSigVerified()
	return true
}

// TryMarkSigned is VerifySigned for signatures the receiving loop checks
// only conditionally: on success the message is marked (so the conditional
// in-loop check is skipped), on failure it is left unmarked and still
// delivered — the loop decides, exactly as it would without a pre-verifier.
// Always reports true.
func TryMarkSigned(a auth.Authenticator, signer types.NodeID, m SignedMessage, sig []byte) bool {
	if !m.SigVerified() && VerifyBody(a, signer, m, sig) == nil {
		m.MarkSigVerified()
	}
	return true
}
