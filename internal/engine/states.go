package engine

import (
	"slices"

	"ezbft/internal/types"
)

// StateKeeper holds the application state at a sequenced protocol's
// recent checkpoint emissions (PBFT, Zyzzyva, FaB): once a checkpoint is
// stable, the state at exactly its sequence number is what the replica
// serves in a state transfer and cuts into a durable snapshot. Two
// generations are kept, so votes that straggle past the next emission still
// find their state.
//
// An application that is a types.Retainer is only pinned at each emission,
// in O(1); its state is serialized when Snapshot first asks for it, and the
// bytes replace the pin. Any other types.Snapshotter is serialized eagerly
// at the emission, and an application that is neither keeps nothing. A
// StateKeeper belongs to one replica and is touched only from its loop.
type StateKeeper struct {
	app      types.Application
	interval uint64
	states   []keptState
}

// keptState is the state at one sequence number: pinned (ret) until first
// serialized, bytes (data) after. aux is a protocol's side value recorded
// with it (Zyzzyva's history hash).
type keptState struct {
	seq  uint64
	aux  types.Digest
	ret  types.Retained
	data []byte
}

// NewStateKeeper keeps app's states for a protocol that emits a checkpoint
// every interval sequence numbers.
func NewStateKeeper(app types.Application, interval uint64) *StateKeeper {
	return &StateKeeper{app: app, interval: interval}
}

// Keep records the application's current final state as the state at seq,
// with aux beside it, and forgets states two intervals or more behind seq.
func (k *StateKeeper) Keep(seq uint64, aux types.Digest) {
	switch app := k.app.(type) {
	case types.Retainer:
		k.add(keptState{seq: seq, aux: aux, ret: app.Retain()})
	case types.Snapshotter:
		k.add(keptState{seq: seq, aux: aux, data: app.Snapshot()})
	}
}

// Adopt records already serialized state as the state at seq: a transfer
// installed, or a durable snapshot recovered, is kept as the bytes it
// arrived in.
func (k *StateKeeper) Adopt(seq uint64, snap []byte, aux types.Digest) {
	k.add(keptState{seq: seq, aux: aux, data: snap})
}

func (k *StateKeeper) add(s keptState) {
	k.states = slices.DeleteFunc(k.states, func(o keptState) bool {
		if o.seq != s.seq && o.seq+2*k.interval > s.seq {
			return false
		}
		if o.ret != nil {
			o.ret.Release()
		}
		return true
	})
	k.states = append(k.states, s)
}

// Writer returns the state kept at seq as a writer, and its aux value. A
// pin whose application streams (types.StateWriter) stays a pin, so the
// state never exists serialized in memory; any other state is serialized
// as Snapshot does. It reports false where Snapshot would, except that a
// streaming pin the application dropped (a Restore since) fails the write.
func (k *StateKeeper) Writer(seq uint64) (types.StateWriter, types.Digest, bool) {
	for i := range k.states {
		if s := &k.states[i]; s.seq == seq {
			if sw, ok := s.ret.(types.StateWriter); ok {
				return sw, s.aux, true
			}
			break
		}
	}
	data, aux, ok := k.Snapshot(seq)
	return types.StateBytes(data), aux, ok
}

// Snapshot returns the serialized state kept at seq and its aux value. It
// reports false when no state is kept there — never recorded, forgotten, or
// a pin the application dropped (a Restore since).
func (k *StateKeeper) Snapshot(seq uint64) ([]byte, types.Digest, bool) {
	for i := range k.states {
		s := &k.states[i]
		if s.seq != seq {
			continue
		}
		if s.ret != nil {
			data, ok := s.ret.Snapshot()
			s.ret.Release()
			if !ok {
				k.states = slices.Delete(k.states, i, i+1)
				return nil, types.Digest{}, false
			}
			s.ret, s.data = nil, data
		}
		return s.data, s.aux, true
	}
	return nil, types.Digest{}, false
}
