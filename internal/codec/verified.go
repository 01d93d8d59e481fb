package codec

import "sync/atomic"

// Verified is the embeddable marker a transport-side verification pool sets
// on a decoded message once every signature the receiving process loop
// would otherwise check unconditionally has been checked. The process loop
// then skips exactly those checks and re-verifies nothing but the semantic
// bindings (digests, quorum sizes, view numbers).
//
// The flag is accessed atomically: on the in-process mesh one decoded
// message value is shared by every recipient, so several nodes' verifier
// pools may mark it while other nodes' loops read it. Marking is monotone
// (false → true) and receiver-independent — every authenticator in a
// cluster validates the same (signer, body, signature) triples — so a mark
// set by any pool is valid for every reader. The field is never marshaled;
// a message that crosses a real wire is decoded afresh, and verified again,
// by the receiving process — except for a value that process's Memo already
// holds for the same bytes: it keeps the mark those bytes earned, since a
// signature check is a fact about exact bytes.
type Verified struct{ flag uint32 }

// MarkSigVerified records that every unconditionally checked signature on
// the message verified. Safe for concurrent use.
func (v *Verified) MarkSigVerified() { atomic.StoreUint32(&v.flag, 1) }

// SigVerified reports whether the message was marked by a verifier pool.
// Safe for concurrent use.
func (v *Verified) SigVerified() bool { return atomic.LoadUint32(&v.flag) != 0 }
