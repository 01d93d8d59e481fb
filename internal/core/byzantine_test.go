package core

import (
	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/engine"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// byzantine builds the engine.Behavior a test cluster gives one replica.
// Like the scenario strategies, a behavior never mutates a message in
// place: it sends altered copies re-signed with the replica's own key.
type byzantine func(self types.ReplicaID, n int, a auth.Authenticator) engine.Behavior

// equivocator is a Byzantine command-leader. A naive "different slot to
// different replicas" is rejected by the contiguity check (I = maxI+1), so
// it first desynchronizes the halves: the first SPECORDER of its space is
// withheld from half B, leaving half B one slot behind. Every later
// SPECORDER reaches half B as a copy re-signed at the lagging slot, and both
// variants pass each half's validation. Clients detect the differing
// instance numbers through the SPECORDERs embedded in the SPECREPLYs (paper
// step 4.4) and emit a POM. Only a SPECORDER's first send to a replica
// equivocates; a retransmission goes out as it is.
type equivocator struct {
	self  types.ReplicaID
	auth  auth.Authenticator
	halfB map[types.NodeID]bool
	lag   uint64                // the slot half B's next copy takes
	alts  map[uint64]*SpecOrder // honest slot → half B's copy (nil: withheld)
	sent  map[sentKey]bool
}

type sentKey struct {
	slot uint64
	to   types.NodeID
}

func newEquivocator(self types.ReplicaID, n int, a auth.Authenticator) engine.Behavior {
	b := &equivocator{self: self, auth: a, halfB: make(map[types.NodeID]bool),
		alts: make(map[uint64]*SpecOrder), sent: make(map[sentKey]bool)}
	halfA := 0
	for i := 0; i < n; i++ {
		switch rid := types.ReplicaID(i); {
		case rid == self:
		case halfA < (n-1)/2:
			halfA++
		default:
			b.halfB[types.ReplicaNode(rid)] = true
		}
	}
	return b
}

func (b *equivocator) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	so, ok := msg.(*SpecOrder)
	if !ok || !b.halfB[to] || so.Inst.Space != b.self || b.sent[sentKey{so.Inst.Slot, to}] {
		return true
	}
	b.sent[sentKey{so.Inst.Slot, to}] = true
	alt, seen := b.alts[so.Inst.Slot]
	if !seen {
		if len(b.alts) == 0 {
			b.lag = so.Inst.Slot
		} else {
			cp := *so
			cp.Inst.Slot = b.lag
			cp.Sig = engine.SignBody(b.auth, &cp)
			alt = &cp
			b.lag++
		}
		b.alts[so.Inst.Slot] = alt
	}
	if alt != nil {
		ctx.Send(to, alt)
	}
	return false
}

func (*equivocator) Inbound(proc.Context, types.NodeID, codec.Message) bool { return true }

// depLiar is the faulty participant of the paper's Fig. 3: every SPECREPLY
// it sends claims no dependencies and sequence number 1, whatever its log
// says.
type depLiar struct{ auth auth.Authenticator }

func newDepLiar(_ types.ReplicaID, _ int, a auth.Authenticator) engine.Behavior {
	return depLiar{a}
}

func (b depLiar) Outbound(ctx proc.Context, to types.NodeID, msg codec.Message) bool {
	sr, ok := msg.(*SpecReply)
	if !ok {
		return true
	}
	lie := *sr
	lie.Deps, lie.Seq = nil, 1
	lie.Sig = engine.SignBody(b.auth, &lie)
	ctx.Send(to, &lie)
	return false
}

func (depLiar) Inbound(proc.Context, types.NodeID, codec.Message) bool { return true }
