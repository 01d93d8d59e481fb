package core

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// bodyMarshaler is implemented by every signed message: the byte string a
// signature covers is the deterministic codec encoding of the body.
type bodyMarshaler interface{ marshalBody(w *codec.Writer) }

// signBody signs m's body through a pooled scratch writer — the hot-path
// variant of a.Sign(m.SignedBody()) that allocates nothing at steady state.
func signBody(a auth.Authenticator, m bodyMarshaler) []byte {
	w := codec.GetWriter()
	m.marshalBody(w)
	sig := a.Sign(w.Bytes())
	codec.PutWriter(w)
	return sig
}

// verifyBody verifies sig over m's body through a pooled scratch writer.
func verifyBody(a auth.Authenticator, signer types.NodeID, m bodyMarshaler, sig []byte) error {
	w := codec.GetWriter()
	m.marshalBody(w)
	err := a.Verify(signer, w.Bytes(), sig)
	codec.PutWriter(w)
	return err
}

// marker is the marking half of the engine.SignedMessage surface; every
// signed message embeds codec.Verified and therefore implements it.
type marker interface {
	MarkSigVerified()
	SigVerified() bool
}

// preVerify checks one signature the process loop would check
// unconditionally, marking the message on success. False drops the message
// (indistinguishable from loss).
func preVerify(a auth.Authenticator, signer types.NodeID, m bodyMarshaler, sig []byte, v marker) bool {
	if v.SigVerified() {
		return true
	}
	if verifyBody(a, signer, m, sig) != nil {
		return false
	}
	v.MarkSigVerified()
	return true
}

// tryMark checks a signature the process loop only verifies conditionally:
// success marks the message so the loop skips its check, failure leaves it
// unmarked for the loop to judge. Never drops.
func tryMark(a auth.Authenticator, signer types.NodeID, m bodyMarshaler, sig []byte, v marker) {
	if !v.SigVerified() && verifyBody(a, signer, m, sig) == nil {
		v.MarkSigVerified()
	}
}

// InboundVerifier returns the transport-side verification predicate for an
// ezBFT node (replica or client) in a cluster of n: every signature the
// receiving process loop checks unconditionally — REQUEST client
// signatures, SPECORDER leader + embedded client signatures, COMMIT client
// signatures, the SPECREPLY signatures inside COMMIT/COMMITFAST
// certificates, SPECREPLY/COMMITREPLY replica signatures at clients,
// owner-change sender signatures, and POM evidence signatures — is checked
// on the verifier-pool workers and the message marked, so the
// single-threaded process loop re-checks nothing but semantic bindings.
// Signatures the loop verifies only conditionally (a RESENDREQ's embedded
// request, OWNERCHANGE history proofs, NEWOWNER proof elements) are verified
// opportunistically: valid ones are marked, invalid ones pass through
// unmarked for the loop to judge, so pool-on and pool-off behaviour stay
// equivalent. A certificate's embedded SPECORDER is not touched at all: the
// loop reads its signature only to install an instance it never saw
// (commitEntry). The predicate is safe for concurrent use — feed it to
// transport.NewVerifyPool.
func InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return func(msg codec.Message) bool {
		switch m := msg.(type) {
		case *Request:
			return preVerify(a, types.ClientNode(m.Cmd.Client), m, m.Sig, m)
		case *SpecOrder:
			return preVerifySpecOrder(a, n, m)
		case *SpecReply:
			return preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m)
		case *CommitFast:
			// A malformed certificate is the loop's to drop and count.
			if len(m.Cert) == 1 && !m.SigVerified() {
				if !verifyFastCert(a, m) {
					return false
				}
				m.MarkSigVerified()
			}
			return true
		case *Commit:
			if !preVerify(a, types.ClientNode(m.Client), m, m.Sig, m) {
				return false
			}
			// The 2f+1 verifications validateCert would otherwise run serially
			// on the loop.
			for _, sr := range m.Cert {
				if !preVerify(a, types.ReplicaNode(sr.Replica), sr, sr.Sig, sr) {
					return false
				}
			}
			return true
		case *CommitReply:
			return preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m)
		case *ResendReq:
			// The original leader only verifies the embedded request when it
			// has not ordered it yet; mark opportunistically, never drop.
			tryMark(a, types.ClientNode(m.Req.Cmd.Client), &m.Req, m.Req.Sig, &m.Req)
			return true
		case *StartOwnerChange:
			return preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m)
		case *OwnerChange:
			return preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m)
		case *NewOwnerMsg:
			if !preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m) {
				return false
			}
			// Proof elements are counted (not all required) in-loop; mark the
			// valid ones so the count costs no further verification.
			for _, oc := range m.Proof {
				tryMark(a, types.ReplicaNode(oc.Replica), oc, oc.Sig, oc)
			}
			return true
		case *POM:
			return preVerifyPOM(a, n, m)
		case *CheckpointMsg:
			return preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m)
		case *CatchupReq:
			return preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m)
		case *CatchupResp:
			if !preVerify(a, types.ReplicaNode(m.Replica), m, m.Sig, m) {
				return false
			}
			// Proof votes are counted (2f+1 of them required, not all) in
			// the loop; mark the valid ones so the count re-verifies nothing.
			for _, v := range m.Proof {
				tryMark(a, types.ReplicaNode(v.Replica), v, v.Sig, v)
			}
			return true
		case *SOFetch:
			return preVerify(a, types.ClientNode(m.Client), m, m.Sig, m)
		default:
			return true
		}
	}
}

// SpecOrderVerifier is the PR-2 predicate restricted to SPECORDER frames;
// it survives for callers that only want ordering-frame coverage.
// InboundVerifier supersedes it for full-coverage deployments.
func SpecOrderVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return func(msg codec.Message) bool {
		so, ok := msg.(*SpecOrder)
		if !ok {
			return true
		}
		return preVerifySpecOrder(a, n, so)
	}
}

// preVerifySpecOrder checks a SPECORDER's leader signature and every
// embedded client signature, marking the frame on success.
func preVerifySpecOrder(a auth.Authenticator, n int, so *SpecOrder) bool {
	if so.BatchSize() > MaxBatchSize {
		return false
	}
	if so.SigVerified() {
		return true
	}
	owner := so.Owner.OwnerOf(n)
	if verifyBody(a, types.ReplicaNode(owner), so, so.Sig) != nil {
		return false
	}
	for i := 0; i < so.BatchSize(); i++ {
		req := so.ReqAt(i)
		if verifyBody(a, types.ClientNode(req.Cmd.Client), req, req.Sig) != nil {
			return false
		}
	}
	so.MarkSigVerified()
	return true
}

// verifyFastCert checks the signatures a COMMITFAST carries: its reply's own
// and, over the same body under each signer's id, the other signers'. Who
// the signers are — replicas, distinct, a fast quorum — is for the loop
// (validateFastCert), marked message or not.
func verifyFastCert(a auth.Authenticator, m *CommitFast) bool {
	sr := m.Cert[0]
	if !sr.SigVerified() && verifyBody(a, types.ReplicaNode(sr.Replica), sr, sr.Sig) != nil {
		return false
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	for _, s := range m.Sigs {
		w.Reset()
		sr.marshalBodyAs(w, s.Replica)
		if a.Verify(types.ReplicaNode(s.Replica), w.Bytes(), s.Sig) != nil {
			return false
		}
	}
	return true
}

// preVerifyPOM checks both accused-owner signatures of a proof of
// misbehaviour; the semantic equivocation checks stay in-loop.
func preVerifyPOM(a auth.Authenticator, n int, m *POM) bool {
	if m.A == nil || m.B == nil {
		return true // the loop drops malformed POMs
	}
	if m.SigVerified() {
		return true
	}
	owner := m.Owner.OwnerOf(n)
	if verifyBody(a, types.ReplicaNode(owner), m.A, m.A.Sig) != nil ||
		verifyBody(a, types.ReplicaNode(owner), m.B, m.B.Sig) != nil {
		return false
	}
	m.MarkSigVerified()
	return true
}
