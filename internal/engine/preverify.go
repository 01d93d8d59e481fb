package engine

import (
	"ezbft/internal/auth"
	"ezbft/internal/types"
)

// FrameRequest is a client request embedded in an ordering frame.
type FrameRequest interface {
	BodyMarshaler
	Command() *types.Command
	Signature() []byte
}

// Frame is the surface a batched ordering message (PRE-PREPARE, ORDERREQ,
// PROPOSE) exposes to the frame checks, outside the process loop
// (VerifyFrame) and in it (Sequencer.CheckFrame), and to the view change:
// the frame-level signature over its body, the embedded client requests,
// where it orders them, and the marker that lets the owning process loop
// skip re-verification.
type Frame[P FrameRequest] interface {
	SignedMessage
	// Position returns the view and sequence number the frame orders its
	// batch at, and the batch digest its signature covers.
	Position() (view, seq uint64, digest types.Digest)
	// BatchSize returns the number of embedded requests.
	BatchSize() int
	// Signature returns the ordering signature.
	Signature() []byte
	// ReqAt returns the i'th embedded request.
	ReqAt(i int) P
}

// VerifyFrame checks an ordering frame outside the process loop: the
// ordering signature against `signer`, then every embedded client
// signature; on success the frame is marked verified. maxBatch rejects
// frames larger than the owning protocol ever produces, so decode and
// verification agree at the boundary. Safe for concurrent use (marking is
// atomic; on the in-process mesh several recipients' pools may race on one
// shared frame, and an already-marked frame short-circuits).
func VerifyFrame[P FrameRequest](a auth.Authenticator, signer types.NodeID, f Frame[P], maxBatch int) bool {
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
		req := f.ReqAt(i)
		if VerifyBody(a, types.ClientNode(req.Command().Client), req, req.Signature()) != nil {
			return false
		}
	}
	f.MarkSigVerified()
	return true
}
