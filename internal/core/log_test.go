package core

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

func TestDepIndexCollectAndUpdate(t *testing.T) {
	idx := newDepIndex()
	put := func(key string) types.Command { return types.Command{Op: types.OpPut, Key: key} }
	get := func(key string) types.Command { return types.Command{Op: types.OpGet, Key: key} }

	// Empty index: no deps.
	deps, maxSeq := idx.collect(put("x"), types.InstanceID{})
	if len(deps) != 0 || maxSeq != 0 {
		t.Fatalf("empty index: %v %d", deps, maxSeq)
	}

	// One PUT on x per space.
	i0 := types.InstanceID{Space: 0, Slot: 1}
	i1 := types.InstanceID{Space: 1, Slot: 1}
	idx.update(i0, put("x"), 1)
	idx.update(i1, put("x"), 2)
	deps, maxSeq = idx.collect(put("x"), types.InstanceID{Space: 2, Slot: 1})
	if !deps.Has(i0) || !deps.Has(i1) || len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	if maxSeq != 2 {
		t.Fatalf("maxSeq = %d", maxSeq)
	}

	// A later PUT in space 0 supersedes the earlier one (latest per class).
	i0b := types.InstanceID{Space: 0, Slot: 5}
	idx.update(i0b, put("x"), 7)
	deps, maxSeq = idx.collect(get("x"), types.InstanceID{Space: 2, Slot: 2})
	if deps.Has(i0) || !deps.Has(i0b) {
		t.Fatalf("latest-per-space violated: %v", deps)
	}
	if maxSeq != 7 {
		t.Fatalf("maxSeq = %d", maxSeq)
	}

	// GETs never depend on GETs.
	idx.update(types.InstanceID{Space: 3, Slot: 1}, get("x"), 9)
	deps, _ = idx.collect(get("x"), types.InstanceID{Space: 2, Slot: 3})
	if deps.Has(types.InstanceID{Space: 3, Slot: 1}) {
		t.Fatal("GET depends on GET")
	}
	// But PUTs do depend on GETs.
	deps, _ = idx.collect(put("x"), types.InstanceID{Space: 2, Slot: 4})
	if !deps.Has(types.InstanceID{Space: 3, Slot: 1}) {
		t.Fatal("PUT does not depend on GET")
	}

	// Different keys never interfere.
	deps, _ = idx.collect(put("y"), types.InstanceID{Space: 2, Slot: 5})
	if len(deps) != 0 {
		t.Fatalf("cross-key deps: %v", deps)
	}

	// The excluded instance never appears in its own deps.
	deps, _ = idx.collect(put("x"), i0b)
	if deps.Has(i0b) {
		t.Fatal("self-dependency")
	}

	// Noops are invisible to the index.
	idx.update(types.InstanceID{Space: 3, Slot: 2}, types.Command{Op: types.OpNoop, Key: "x"}, 50)
	_, maxSeq = idx.collect(put("x"), types.InstanceID{Space: 2, Slot: 6})
	if maxSeq >= 50 {
		t.Fatal("noop affected sequence numbers")
	}
}

func TestDepIndexSeqOnlyUpdate(t *testing.T) {
	idx := newDepIndex()
	put := types.Command{Op: types.OpPut, Key: "x"}
	inst := types.InstanceID{Space: 0, Slot: 1}
	idx.update(inst, put, 1)
	// A commit raising the sequence number re-registers the same instance.
	idx.update(inst, put, 9)
	_, maxSeq := idx.collect(put, types.InstanceID{Space: 1, Slot: 1})
	if maxSeq != 9 {
		t.Fatalf("maxSeq = %d, want 9 after seq-only update", maxSeq)
	}
	// A stale lower seq for the same instance must not regress it.
	idx.update(inst, put, 3)
	_, maxSeq = idx.collect(put, types.InstanceID{Space: 1, Slot: 2})
	if maxSeq != 9 {
		t.Fatalf("maxSeq = %d, regressed by stale update", maxSeq)
	}
}

func TestCmdLogPutGetAndMaxSlot(t *testing.T) {
	l := newCmdLog(4)
	e := &entry{inst: types.InstanceID{Space: 2, Slot: 3}}
	l.put(e)
	if got := l.get(e.inst); got != e {
		t.Fatal("get after put failed")
	}
	if l.get(types.InstanceID{Space: 2, Slot: 4}) != nil {
		t.Fatal("phantom entry")
	}
	if l.space(2).maxSlot != 3 {
		t.Fatalf("maxSlot = %d", l.space(2).maxSlot)
	}
	l.put(&entry{inst: types.InstanceID{Space: 2, Slot: 1}})
	if l.space(2).maxSlot != 3 {
		t.Fatal("maxSlot regressed")
	}
}

func TestSpaceHashChain(t *testing.T) {
	a, b := newSpace(), newSpace()
	inst1 := types.InstanceID{Space: 0, Slot: 1}
	inst2 := types.InstanceID{Space: 0, Slot: 2}
	d1 := types.DigestBytes([]byte("cmd1"))
	d2 := types.DigestBytes([]byte("cmd2"))

	a.extendHash(inst1, d1)
	a.extendHash(inst2, d2)
	b.extendHash(inst1, d1)
	if a.logHash == b.logHash {
		t.Fatal("different prefixes produced equal hashes")
	}
	b.extendHash(inst2, d2)
	if a.logHash != b.logHash {
		t.Fatal("equal prefixes produced different hashes")
	}
	// Order matters.
	c := newSpace()
	c.extendHash(inst2, d2)
	c.extendHash(inst1, d1)
	if c.logHash == a.logHash {
		t.Fatal("hash insensitive to order")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusNone: "none", StatusSpecOrdered: "spec-ordered",
		StatusCommitted: "committed", StatusExecuted: "executed",
		Status(99): "invalid",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

// Property: collect never returns the excluded instance and maxSeq is
// always ≥ the seq of every returned dependency's registration.
func TestDepIndexProperty(t *testing.T) {
	f := func(slots []uint8, seqs []uint8) bool {
		if len(slots) == 0 || len(seqs) == 0 {
			return true
		}
		idx := newDepIndex()
		put := types.Command{Op: types.OpPut, Key: "k"}
		var lastInst types.InstanceID
		for i := range slots {
			seq := types.SeqNumber(seqs[i%len(seqs)]%16) + 1
			inst := types.InstanceID{Space: types.ReplicaID(i % 4), Slot: uint64(slots[i]%8) + 1}
			idx.update(inst, put, seq)
			lastInst = inst
		}
		deps, maxSeq := idx.collect(put, lastInst)
		if deps.Has(lastInst) {
			return false
		}
		// maxSeq must equal the max over returned deps' seqs (cannot check
		// registration seqs directly since later slots supersede), so just
		// require it to be ≥ 0 and consistent with a second call.
		deps2, maxSeq2 := idx.collect(put, lastInst)
		return maxSeq == maxSeq2 && deps.Equal(deps2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChainedDigestsMatchStreamingForm: a space's log hash and its execution
// digest are hashed in one call over a fixed array, and equal, link by link,
// what streaming the same fields through a SHA-256 state gives — the form
// that wrote every recorded snapshot and signed SPECORDER before — while
// allocating nothing.
func TestChainedDigestsMatchStreamingForm(t *testing.T) {
	streamed := func(prev types.Digest, fields ...[]byte) types.Digest {
		h := sha256.New()
		h.Write(prev[:])
		for _, f := range fields {
			h.Write(f)
		}
		var out types.Digest
		copy(out[:], h.Sum(nil))
		return out
	}
	sp := newSpace()
	var logHash, execDigest types.Digest
	for i, inst := range []types.InstanceID{
		{Space: 0, Slot: 1}, {Space: 3, Slot: 2}, {Space: 1, Slot: 1 << 40}, {Space: -1, Slot: ^uint64(0)}, {Space: 1 << 30, Slot: 0},
	} {
		d := sha256.Sum256([]byte{byte(i)})
		var where [12]byte
		binary.BigEndian.PutUint32(where[:4], uint32(inst.Space))
		binary.BigEndian.PutUint64(where[4:], inst.Slot)
		logHash = streamed(logHash, where[:], d[:])
		if sp.extendHash(inst, d); sp.logHash != logHash {
			t.Fatalf("link %d: log hash %x, streamed %x", i, sp.logHash, logHash)
		}
		want := streamed(execDigest, where[4:], d[:])
		if execDigest = chainExecDigest(execDigest, inst.Slot, d); execDigest != want {
			t.Fatalf("link %d: execution digest %x, streamed %x", i, execDigest, want)
		}
	}
	if race.Enabled {
		return // the race detector changes allocation counts
	}
	d := types.Digest{9}
	if got := testing.AllocsPerRun(100, func() {
		sp.extendHash(types.InstanceID{Space: 2, Slot: 7}, d)
		execDigest = chainExecDigest(execDigest, 7, d)
	}); got != 0 {
		t.Errorf("chaining one link allocates %v objects, want 0", got)
	}
}
