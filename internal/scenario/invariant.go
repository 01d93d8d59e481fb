package scenario

import (
	"fmt"

	"ezbft/internal/kvstore"
	"ezbft/internal/types"
)

type execKey struct {
	client types.ClientID
	ts     uint64
}

// execution is one final execution: the (client, ts) it ran for and the
// digest of the command it ran.
type execution struct {
	key    execKey
	digest types.Digest
}

// Journal wraps the reference key-value store and records every final
// execution, so the harness can check on each replica, independently of
// the end-to-end counter check, exactly-once per (client, timestamp) and
// that every final execution ran the command its client issued.
// Speculative executions are not journaled — they may legitimately roll
// back; only Apply (baselines) and PromoteFinal (ezBFT) count.
type Journal struct {
	store *kvstore.Store
	seen  map[execKey]int
	// executed lists every final execution in order, across state-transfer
	// installs: one that a later install overwrote stays on record.
	executed []execution
	// Duplicates lists the first few (client, ts) pairs finally executed
	// more than once since the last state-transfer install.
	Duplicates []string
	// Restores counts state-transfer installs. An install replaces the
	// store wholesale, so the seen-set resets with it: entries replayed
	// above the snapshot are new executions on this state, and true
	// cross-install duplicates surface through the counter invariant.
	Restores int
	// Finals counts journaled final executions.
	Finals uint64
}

var (
	_ types.Application            = (*Journal)(nil)
	_ types.SpeculativeApplication = (*Journal)(nil)
	_ types.Snapshotter            = (*Journal)(nil)
)

// NewJournal builds a journaling application over a fresh store.
func NewJournal() *Journal {
	return &Journal{store: kvstore.New(), seen: make(map[execKey]int)}
}

func (j *Journal) record(cmd types.Command) {
	if cmd.IsNoop() {
		return
	}
	j.Finals++
	k := execKey{client: cmd.Client, ts: cmd.Timestamp}
	j.executed = append(j.executed, execution{key: k, digest: cmd.Digest()})
	j.seen[k]++
	if j.seen[k] == 2 && len(j.Duplicates) < 8 {
		j.Duplicates = append(j.Duplicates, fmt.Sprintf("client %d ts %d executed twice", k.client, k.ts))
	}
}

// Impostors lists the first few final executions that ran a command other
// than the one its client issued; issued maps each (client, ts) to the
// digest of the command its client issued under it.
func (j *Journal) Impostors(issued map[execKey]types.Digest) []string {
	var out []string
	for _, e := range j.executed {
		if d, ok := issued[e.key]; ok && d == e.digest {
			continue
		}
		out = append(out, fmt.Sprintf("client %d ts %d executed a command its client never issued", e.key.client, e.key.ts))
		if len(out) == 8 {
			break
		}
	}
	return out
}

// Apply implements types.Application.
func (j *Journal) Apply(cmd types.Command) types.Result {
	j.record(cmd)
	return j.store.Apply(cmd)
}

// Digest implements types.Application.
func (j *Journal) Digest() types.Digest { return j.store.Digest() }

// SpecExecute implements types.SpeculativeApplication.
func (j *Journal) SpecExecute(cmd types.Command) types.Result { return j.store.SpecExecute(cmd) }

// Rollback implements types.SpeculativeApplication.
func (j *Journal) Rollback() { j.store.Rollback() }

// PromoteFinal implements types.SpeculativeApplication.
func (j *Journal) PromoteFinal(cmd types.Command) types.Result {
	j.record(cmd)
	return j.store.PromoteFinal(cmd)
}

// Snapshot implements types.Snapshotter.
func (j *Journal) Snapshot() []byte { return j.store.Snapshot() }

// Restore implements types.Snapshotter.
func (j *Journal) Restore(snap []byte) error {
	if err := j.store.Restore(snap); err != nil {
		return err
	}
	j.Restores++
	j.seen = make(map[execKey]int)
	return nil
}

// Counter reads the hot INCR counter from the final state.
func (j *Journal) Counter(key string) uint64 {
	v, ok := j.store.Get(key)
	if !ok {
		return 0
	}
	return kvstore.Counter(v)
}
