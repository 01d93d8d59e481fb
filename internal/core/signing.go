package core

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// InboundVerifier returns the transport-side verification predicate for an
// ezBFT node (replica or client) in a cluster of n: every signature the
// receiving process loop checks unconditionally — REQUEST client
// signatures, SPECORDER leader + embedded client signatures, COMMIT client
// signatures, the SPECREPLY signatures and signer pairs of COMMIT and
// COMMITFAST certificates, SPECREPLY/COMMITREPLY replica signatures at
// clients, owner-change sender signatures, COMMITFETCH requester signatures,
// and POM evidence signatures — is checked on the verifier-pool workers and the
// message marked, so the single-threaded process loop re-checks nothing but
// semantic bindings.
// Signatures the loop verifies only conditionally (a RESENDREQ's embedded
// request, OWNERCHANGE history proofs and stable-mark votes, NEWOWNER proof
// elements) are verified opportunistically: valid ones are marked, invalid
// ones pass through unmarked for the loop to judge, so pool-on and pool-off
// behaviour stay equivalent. A certificate's embedded SPECORDER is not
// touched at all: the loop reads its signature only to install an instance
// it never saw (commitEntry). The predicate is safe for concurrent use — feed it to
// transport.NewVerifyPool.
func InboundVerifier(a auth.Authenticator, n int) func(msg codec.Message) bool {
	return func(msg codec.Message) bool {
		switch m := msg.(type) {
		case *Request:
			return engine.VerifySigned(a, types.ClientNode(m.Cmd.Client), m, m.Sig)
		case *SpecOrder:
			return preVerifySpecOrder(a, n, m)
		case *SpecReply:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *CommitFast, *Commit:
			return preVerifyCert(a, m.(certified))
		case *CommitReply:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *ResendReq:
			// The original leader only verifies the embedded request when it
			// has not ordered it yet; mark opportunistically, never drop.
			engine.TryMarkSigned(a, types.ClientNode(m.Req.Cmd.Client), &m.Req, m.Req.Sig)
			return true
		case *StartOwnerChange:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *OwnerChange:
			if !engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig) {
				return false
			}
			markCheckpointVotes(a, m.Votes)
			return true
		case *NewOwnerMsg:
			if !engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig) {
				return false
			}
			// Proof elements, and the votes behind their stable marks, are
			// counted (not all required) in-loop; mark the valid ones so the
			// count costs no further verification.
			for _, oc := range m.Proof {
				engine.TryMarkSigned(a, types.ReplicaNode(oc.Replica), oc, oc.Sig)
				markCheckpointVotes(a, oc.Votes)
			}
			return true
		case *POM:
			return preVerifyPOM(a, n, m)
		case *CheckpointMsg:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *CatchupReq:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		case *CatchupResp:
			if !engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig) {
				return false
			}
			// Proof votes are counted (2f+1 of them required, not all) in
			// the loop; mark the valid ones so the count re-verifies nothing.
			markCheckpointVotes(a, m.Proof)
			return true
		case *SOFetch:
			return engine.VerifySigned(a, types.ClientNode(m.Client), m, m.Sig)
		case *CommitFetch:
			return engine.VerifySigned(a, types.ReplicaNode(m.Replica), m, m.Sig)
		default:
			return true
		}
	}
}

// markCheckpointVotes marks the validly signed votes of a stable-mark
// proof.
func markCheckpointVotes(a auth.Authenticator, votes []*CheckpointMsg) {
	for _, v := range votes {
		engine.TryMarkSigned(a, types.ReplicaNode(v.Replica), v, v.Sig)
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
	if engine.VerifyBody(a, types.ReplicaNode(owner), so, so.Sig) != nil {
		return false
	}
	for i := 0; i < so.BatchSize(); i++ {
		req := so.ReqAt(i)
		if engine.VerifyBody(a, types.ClientNode(req.Cmd.Client), req, req.Sig) != nil {
			return false
		}
	}
	so.MarkSigVerified()
	return true
}

// certified is a COMMITFAST or a COMMIT: a client's announcement of the
// certificate it decided on, in either form (see "Certificates" in the
// package comment).
type certified interface {
	certificate() (cert []*SpecReply, sigs []ReplySig)
	SigVerified() bool
	MarkSigVerified()
}

// certDecision is the slow-path decision a certificate carries: the union
// of its replies' dependencies and the largest of their sequence numbers.
// The client combines its chosen replies this way, and a replica recomputes
// it rather than take the client's word. Signer pairs vouch for the first
// reply's very body, so the compact form's decision is that reply's own.
func certDecision(cert []*SpecReply) (deps types.InstanceSet, seq types.SeqNumber) {
	for _, sr := range cert {
		deps.Union(sr.Deps)
		seq = max(seq, sr.Seq)
	}
	return deps, seq
}

// decidedByCert reports whether a COMMIT claims the decision its
// certificate carries. The client's signature does not make its claim true:
// a COMMIT naming other dependencies or another sequence number decides
// nothing.
func decidedByCert(c *Commit) bool {
	deps, seq := certDecision(c.Cert)
	return c.Seq == seq && c.Deps.Equal(deps)
}

// certShaped reports whether a certificate has the shape its form requires:
// at least one reply, and exactly one when signer pairs ride along.
func certShaped(cert []*SpecReply, sigs []ReplySig) bool {
	return len(cert) == 1 || (len(cert) > 1 && len(sigs) == 0)
}

// preVerifyCert is the pool's check of a COMMITFAST or COMMIT: every
// signature it carries — a COMMIT's client signature and the certificate's
// (verifyCertSigs) — and only then the mark, since one decoded value may
// reach several replicas. Who the signers are is for the loop
// (validateCert), marked message or not; a misshapen certificate passes
// unmarked for the loop to drop and count.
func preVerifyCert(a auth.Authenticator, m certified) bool {
	cert, sigs := m.certificate()
	if m.SigVerified() || !certShaped(cert, sigs) {
		return true
	}
	if c, ok := m.(*Commit); ok && engine.VerifyBody(a, types.ClientNode(c.Client), c, c.Sig) != nil {
		return false
	}
	if !verifyCertSigs(a, cert, sigs) {
		return false
	}
	m.MarkSigVerified()
	return true
}

// verifyCertSigs checks a certificate's replica signatures: each reply's
// own and, over the first reply's body under each signer's id, the signer
// pairs'.
func verifyCertSigs(a auth.Authenticator, cert []*SpecReply, sigs []ReplySig) bool {
	for _, sr := range cert {
		if !engine.VerifySigned(a, types.ReplicaNode(sr.Replica), sr, sr.Sig) {
			return false
		}
	}
	if len(sigs) == 0 {
		return true
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	for _, s := range sigs {
		w.Reset()
		cert[0].marshalBodyAs(w, s.Replica)
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
	if engine.VerifyBody(a, types.ReplicaNode(owner), m.A, m.A.Sig) != nil ||
		engine.VerifyBody(a, types.ReplicaNode(owner), m.B, m.B.Sig) != nil {
		return false
	}
	m.MarkSigVerified()
	return true
}
