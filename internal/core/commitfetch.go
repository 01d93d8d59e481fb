package core

import (
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// Commit fetch: how a replica that missed a client's COMMITFAST or COMMIT
// gets it from its peers (the package comment says why it can miss one).
//
//   - A replica runs at most one commit-wait timer, armed while an entry it
//     holds above max(execMark, truncated) may be uncommitted, with the
//     period DepWaitTimeout.
//   - Each expiry scans exactly those slots of every space that is neither
//     frozen nor suspended, and broadcasts one signed COMMITFETCH naming the
//     first maxFetch instances that were already there, uncommitted, at the
//     previous expiry (a slot up to the space's fetchMark).
//   - A peer answers each instance it holds committed with the client's own
//     certificates (entry.fastCommit, entry.clientCommit), which the
//     requester handles as if the client had sent them: handleCommitFast and
//     handleCommit, after InboundVerifier on a transport with a verifier
//     pool. A forged answer fails their signature checks and the entry waits
//     for the next expiry.

// tagCommitFetch is COMMITFETCH's codec tag. ezBFT's own range (10–29) is
// full; 66 is the first tag no protocol uses.
const tagCommitFetch = 66

// maxFetch bounds the instances one COMMITFETCH names, and so the answers one
// request can draw from a peer.
const maxFetch = 64

// CommitFetch is a replica's request for the commit certificates of instances
// it holds uncommitted, ⟨COMMITFETCH, R, I…⟩σR.
type CommitFetch struct {
	Replica types.ReplicaID   // requester
	Insts   types.InstanceSet // at most maxFetch
	Sig     []byte

	codec.Verified // transport-side pre-verification marker; never marshaled
}

// Tag implements codec.Message.
func (m *CommitFetch) Tag() uint8 { return tagCommitFetch }

// MarshalTo implements codec.Message.
func (m *CommitFetch) MarshalTo(w *codec.Writer) {
	m.MarshalBody(w)
	w.Blob(m.Sig)
}

func (m *CommitFetch) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.Replica))
	w.InstanceSet(m.Insts)
}

func decodeCommitFetch(r *codec.Reader) (*CommitFetch, error) {
	m := &CommitFetch{Replica: types.ReplicaID(r.Int32())}
	// The count is checked before InstanceSet sizes anything by it.
	off := r.Offset()
	if r.Uvarint() > maxFetch {
		return nil, codec.ErrOverflow
	}
	r.Rewind(off)
	m.Insts = r.InstanceSet()
	m.Sig = r.Blob()
	return m, r.Err()
}

func init() {
	codec.Register(tagCommitFetch, "ezbft.CommitFetch", func(r *codec.Reader) (codec.Message, error) { return decodeCommitFetch(r) })
}

// armCommitWait arms the commit-wait timer unless it is armed already. It is
// called wherever an entry enters the log uncommitted, or over a hole.
func (r *Replica) armCommitWait(ctx proc.Context) {
	if r.commitWaitArmed {
		return
	}
	r.commitWaitArmed = true
	r.AfterTimer(ctx, r.cfg.DepWaitTimeout, r.scanCommitWait)
}

// scanCommitWait is the commit-wait timer's expiry: fetch what has stayed
// uncommitted since the previous one, and stay armed while anything is.
func (r *Replica) scanCommitWait(ctx proc.Context) {
	r.commitWaitArmed = false
	var want types.InstanceSet
	waiting := false
	for i, sp := range r.log.spaces {
		if sp.frozen || sp.suspended {
			continue // the owner change decides these slots
		}
		for slot := max(sp.execMark, sp.truncated) + 1; slot <= sp.maxSlot; slot++ {
			if e := sp.entries[slot]; e != nil && e.status >= StatusCommitted {
				continue
			}
			waiting = true
			if slot <= sp.fetchMark && len(want) < maxFetch {
				// Spaces and slots ascend, so the set stays sorted.
				want = append(want, types.InstanceID{Space: types.ReplicaID(i), Slot: slot})
			}
		}
		sp.fetchMark = sp.maxSlot
	}
	if len(want) > 0 {
		m := &CommitFetch{Replica: r.cfg.Self, Insts: want}
		r.cfg.Costs.ChargeSign(ctx)
		m.Sig = engine.SignBody(r.cfg.Auth, m)
		r.stats.CommitFetches++
		r.Broadcast(ctx, m)
	}
	if waiting {
		r.armCommitWait(ctx)
	}
}

// handleCommitFetch answers a peer's COMMITFETCH with the client certificates
// this replica holds for the named instances it has committed.
func (r *Replica) handleCommitFetch(ctx proc.Context, m *CommitFetch) {
	if m.Replica < 0 || int(m.Replica) >= r.n || m.Replica == r.cfg.Self || len(m.Insts) > maxFetch {
		r.stats.DroppedInvalid++
		return
	}
	if !m.SigVerified() {
		r.cfg.Costs.ChargeVerify(ctx, 1)
		if err := engine.VerifyBody(r.cfg.Auth, types.ReplicaNode(m.Replica), m, m.Sig); err != nil {
			r.stats.DroppedInvalid++
			return
		}
	}
	to := types.ReplicaNode(m.Replica)
	for _, inst := range m.Insts {
		if inst.Space < 0 || int(inst.Space) >= r.n {
			continue
		}
		e := r.log.get(inst)
		if e == nil || e.status < StatusCommitted {
			continue
		}
		// Both, when both committed the entry here: the requester merges
		// them as commitEntry did on this replica.
		if e.fastCommit != nil {
			r.Send(ctx, to, e.fastCommit)
		}
		if e.clientCommit != nil {
			r.Send(ctx, to, e.clientCommit)
		}
	}
}
