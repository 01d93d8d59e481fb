package engine

import (
	"math/rand"
	"testing"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// The messages of a toy protocol for the Lifecycle's tests: a vote in any
// space, a transfer request, and a response whose payload is one byte.
type tvote struct {
	space  CheckpointSpace
	mark   uint64
	digest types.Digest
	voter  types.ReplicaID
	sig    []byte
	codec.Verified
}

func (m *tvote) Tag() uint8                                      { return 1 }
func (m *tvote) MarshalTo(w *codec.Writer)                       { m.MarshalBody(w); w.Blob(m.sig) }
func (m *tvote) Signer() (types.ReplicaID, []byte)               { return m.voter, m.sig }
func (m *tvote) Ballot() (CheckpointSpace, uint64, types.Digest) { return m.space, m.mark, m.digest }
func (m *tvote) MarshalBody(w *codec.Writer) {
	w.Int32(int32(m.space))
	w.Uvarint(m.mark)
	w.Bytes32(m.digest)
	w.Int32(int32(m.voter))
}

// vote is an unsigned vote, as the tracker's tests tally it.
func vote(space CheckpointSpace, mark uint64, voter types.ReplicaID, digest types.Digest) *tvote {
	return &tvote{space: space, mark: mark, digest: digest, voter: voter}
}

type treq struct {
	from types.ReplicaID
	sig  []byte
	codec.Verified
}

func (m *treq) Tag() uint8                        { return 2 }
func (m *treq) MarshalTo(w *codec.Writer)         { m.MarshalBody(w); w.Blob(m.sig) }
func (m *treq) MarshalBody(w *codec.Writer)       { w.Int32(int32(m.from)) }
func (m *treq) Signer() (types.ReplicaID, []byte) { return m.from, m.sig }

type tresp struct {
	from    types.ReplicaID
	payload byte
	sig     []byte
	codec.Verified
}

func (m *tresp) Tag() uint8                        { return 3 }
func (m *tresp) MarshalTo(w *codec.Writer)         { m.MarshalBody(w); w.Blob(m.sig) }
func (m *tresp) MarshalBody(w *codec.Writer)       { w.Int32(int32(m.from)); w.Uint8(m.payload) }
func (m *tresp) Signer() (types.ReplicaID, []byte) { return m.from, m.sig }

// tctx is a replica's runtime: it keeps what the replica sent and the
// timers it armed.
type tctx struct {
	sent   []tsend
	timers map[proc.TimerID]time.Duration
	rnd    *rand.Rand
}

type tsend struct {
	to  types.NodeID
	msg codec.Message
}

func newCtx() *tctx {
	return &tctx{timers: make(map[proc.TimerID]time.Duration), rnd: rand.New(rand.NewSource(1))}
}

func (c *tctx) Now() time.Duration                        { return 0 }
func (c *tctx) Send(to types.NodeID, msg codec.Message)   { c.sent = append(c.sent, tsend{to, msg}) }
func (c *tctx) SetTimer(id proc.TimerID, d time.Duration) { c.timers[id] = d }
func (c *tctx) CancelTimer(id proc.TimerID)               { delete(c.timers, id) }
func (c *tctx) Charge(time.Duration)                      {}
func (c *tctx) Rand() *rand.Rand                          { return c.rnd }

// thost is a lagging replica's protocol half: its executed mark per space,
// all at the checkpoint but the lagging one's, and the payload it
// installed. Honest replicas serve payload 1.
type thost struct {
	t        *testing.T
	life     *Lifecycle[*tvote, *treq, *tresp]
	lagging  CheckpointSpace
	exec     []uint64
	admitted int
	group    int // the size of the agreeing group the install came with
	payload  byte
}

func (h *thost) Stabilized(_ proc.Context, st *StableCheckpoint[*tvote]) bool { return h.Behind(st) }
func (h *thost) Behind(st *StableCheckpoint[*tvote]) bool                     { return h.exec[st.Space] < st.Mark }
func (h *thost) Solicit(_ proc.Context, _ *StableCheckpoint[*tvote]) *treq {
	return &treq{from: h.life.cfg.Self}
}
func (h *thost) Serve(proc.Context, *treq) (*tresp, bool) { return nil, false }
func (h *thost) Admit(ctx proc.Context, m *tresp) Admission {
	h.admitted++
	if !h.life.Valid(ctx, m.from, m, m.sig) {
		return Ignore
	}
	return Agree
}
func (h *thost) Agree(a, b *tresp) bool { return a.payload == b.payload }
func (h *thost) Install(_ proc.Context, m *tresp, group []*tresp) bool {
	h.payload, h.group = m.payload, len(group)
	h.exec[h.lagging] = lifeMark
	return true
}

const (
	lifeN     = 4
	lifeSelf  = types.ReplicaID(3) // the lagging replica; 0, 1 and 2 vote
	lifeMark  = 8
	lifeRetry = time.Second
)

var lifeKeys = auth.NewHMACKeyring([]byte("lifecycle"))

func signer(id types.ReplicaID) auth.Authenticator { return lifeKeys.ForNode(types.ReplicaNode(id)) }

// newLagging builds the lifecycle of a replica with spaces spaces, behind
// the checkpoint in the lagging one.
func newLagging(t *testing.T, spaces int, lagging CheckpointSpace) *thost {
	h := &thost{t: t, lagging: lagging, exec: make([]uint64, spaces)}
	for i := range h.exec {
		h.exec[i] = lifeMark
	}
	h.exec[lagging] = 0
	shell := NewShell(lifeSelf, lifeN, false, nil, nil)
	h.life = NewLifecycle[*tvote, *treq, *tresp](LogConfig{
		Self: lifeSelf, N: lifeN, Auth: signer(lifeSelf), Interval: 4, RetryBase: lifeRetry,
	}, &shell, h)
	return h
}

// signedVote is voter's signed vote for the mark in space.
func signedVote(space CheckpointSpace, voter types.ReplicaID) *tvote {
	v := vote(space, lifeMark, voter, types.Digest{9})
	v.sig = SignBody(signer(voter), v)
	return v
}

// respond is voter's signed response with payload.
func respond(voter types.ReplicaID, payload byte) *tresp {
	m := &tresp{from: voter, payload: payload}
	m.sig = SignBody(signer(voter), m)
	return m
}

// rounds drives the lagging replica from the votes of 0, 1 and 2 in every
// space to an install: each round every solicited voter answers — liars with payload 2,
// honest ones with 1, silent ones not at all — and then the retry timer
// fires. It returns the rounds it took and the retry delays armed.
func (h *thost) rounds(silent, liar types.ReplicaID, limit int) (int, []time.Duration) {
	ctx := newCtx()
	for space := range h.exec {
		for voter := types.ReplicaID(0); voter < 3; voter++ {
			h.life.HandleCheckpoint(ctx, signedVote(CheckpointSpace(space), voter))
		}
	}
	if st := h.life.Stats(); st.Checkpoints != uint64(len(h.exec)) || h.life.Mark(h.lagging) != lifeMark {
		h.t.Fatalf("%d of %d spaces stable, the lagging one at %d", st.Checkpoints, len(h.exec), h.life.Mark(h.lagging))
	}
	var delays []time.Duration
	for round := 1; round <= limit; round++ {
		if len(ctx.timers) != 1 {
			h.t.Fatalf("round %d: %d retry timers armed, want 1", round, len(ctx.timers))
		}
		var timer proc.TimerID
		for id, d := range ctx.timers {
			timer = id
			delays = append(delays, d)
		}
		sent := ctx.sent
		ctx.sent, ctx.timers = nil, make(map[proc.TimerID]time.Duration)
		for _, s := range sent {
			voter := s.to.Replica()
			switch {
			case voter == silent:
			case voter == liar:
				h.life.HandleCatchupResp(ctx, respond(voter, 2))
			default:
				h.life.HandleCatchupResp(ctx, respond(voter, 1))
			}
		}
		if h.payload != 0 {
			return round, delays
		}
		h.life.shell.OnTimer(ctx, timer)
	}
	return limit + 1, delays
}

// TestTransferRound pins the shared transfer round on a one-space
// (sequenced-shaped) and a four-space (ezBFT-shaped) replica.
func TestTransferRound(t *testing.T) {
	const f = (lifeN - 1) / 3
	for _, shape := range []struct {
		name    string
		spaces  int
		lagging CheckpointSpace
	}{{"one-space", 1, 0}, {"four-space", lifeN, 2}} {
		t.Run(shape.name+"/f silent voters install within f+1 rounds", func(t *testing.T) {
			for silent := types.ReplicaID(0); silent < 3; silent++ {
				h := newLagging(t, shape.spaces, shape.lagging)
				n, _ := h.rounds(silent, -1, f+1)
				if n > f+1 || h.payload != 1 || h.group < f+1 {
					t.Fatalf("voter %d silent: installed payload %d from a group of %d after %d rounds; want 1 from >= %d within %d",
						silent, h.payload, h.group, n, f+1, f+1)
				}
			}
		})
		t.Run(shape.name+"/a disagreeing responder is counted", func(t *testing.T) {
			h := newLagging(t, shape.spaces, shape.lagging)
			n, _ := h.rounds(-1, 0, 2*(f+1))
			if st := h.life.Stats(); h.payload != 1 || st.CatchupMismatches != 1 || st.CatchupsInstalled != 1 {
				t.Fatalf("after %d rounds: installed payload %d, %d mismatches, %d installs; want 1, 1, 1",
					n, h.payload, st.CatchupMismatches, st.CatchupsInstalled)
			}
		})
		t.Run(shape.name+"/an unsolicited response is ignored", func(t *testing.T) {
			h := newLagging(t, shape.spaces, shape.lagging)
			for voter := types.ReplicaID(0); voter < 3; voter++ {
				h.life.HandleCatchupResp(newCtx(), respond(voter, 1))
			}
			if h.admitted != 0 || h.payload != 0 || h.life.Stats().CatchupsInstalled != 0 {
				t.Fatalf("unsolicited responses: %d admitted, payload %d installed", h.admitted, h.payload)
			}
		})
		t.Run(shape.name+"/a vote naming a space or voter outside the cluster is dropped", func(t *testing.T) {
			h := newLagging(t, shape.spaces, shape.lagging)
			ctx := newCtx()
			for voter := types.ReplicaID(0); voter < 3; voter++ {
				h.life.HandleCheckpoint(ctx, signedVote(lifeN, voter))
			}
			for voter := types.ReplicaID(lifeN); voter < lifeN+3; voter++ {
				h.life.HandleCheckpoint(ctx, signedVote(shape.lagging, voter))
			}
			if st := h.life.Stats(); st.DroppedInvalid != 6 || st.Checkpoints != 0 || len(ctx.sent) != 0 {
				t.Fatalf("dropped %d of 6, %d checkpoints stable, %d messages sent", st.DroppedInvalid, st.Checkpoints, len(ctx.sent))
			}
		})
	}
}

// TestTransferRetryBacksOffWhenAnswersDisagree pins the Lifecycle's retry
// rule: a round that heard responses which did not agree backs off like an
// unanswered one, so the second round waits in [1.5, 2.5) RetryBase where
// the first waited in [0.75, 1.25).
func TestTransferRetryBacksOffWhenAnswersDisagree(t *testing.T) {
	h := newLagging(t, 1, 0)
	n, delays := h.rounds(-1, 0, 4)
	if n != 2 || len(delays) != 2 {
		t.Fatalf("installed after %d rounds with %d retry delays; want 2 and 2", n, len(delays))
	}
	if first, second := delays[0], delays[1]; first >= lifeRetry*5/4 || second < lifeRetry*3/2 {
		t.Fatalf("retry delays %v then %v; want the second round backed off to at least %v", first, second, lifeRetry*3/2)
	}
}
