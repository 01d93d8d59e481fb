package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

func put(key, val string) types.Command {
	return types.Command{Op: types.OpPut, Key: key, Value: []byte(val)}
}
func get(key string) types.Command  { return types.Command{Op: types.OpGet, Key: key} }
func incr(key string) types.Command { return types.Command{Op: types.OpIncr, Key: key} }

func TestFinalPutGet(t *testing.T) {
	s := New()
	if r := s.Apply(get("k")); r.OK {
		t.Fatal("missing key reported OK")
	}
	if r := s.Apply(put("k", "v")); !r.OK {
		t.Fatal("put failed")
	}
	r := s.Apply(get("k"))
	if !r.OK || string(r.Value) != "v" {
		t.Fatalf("get = %+v", r)
	}
}

func TestSpecReadsThroughToFinal(t *testing.T) {
	s := New()
	s.PromoteFinal(put("k", "base"))
	r := s.SpecExecute(get("k"))
	if !r.OK || string(r.Value) != "base" {
		t.Fatalf("spec get = %+v", r)
	}
}

func TestSpecOverlayShadowsAndRollsBack(t *testing.T) {
	s := New()
	s.PromoteFinal(put("k", "base"))
	s.SpecExecute(put("k", "spec"))
	if r := s.SpecExecute(get("k")); string(r.Value) != "spec" {
		t.Fatalf("spec read = %+v", r)
	}
	// Final state unaffected by speculation.
	if v, _ := s.Get("k"); string(v) != "base" {
		t.Fatalf("final state = %q", v)
	}
	s.Rollback()
	if r := s.SpecExecute(get("k")); string(r.Value) != "base" {
		t.Fatalf("after rollback spec read = %+v", r)
	}
}

func TestPromoteFinalIgnoresOverlay(t *testing.T) {
	s := New()
	s.SpecExecute(put("k", "spec"))
	// Final execution runs on the previous final version only.
	if r := s.PromoteFinal(get("k")); r.OK {
		t.Fatalf("final get saw speculative write: %+v", r)
	}
}

func TestIncrCommutes(t *testing.T) {
	a := New()
	a.Apply(incr("n"))
	a.Apply(incr("n"))
	b := New()
	b.Apply(incr("n"))
	b.Apply(incr("n"))
	va, _ := a.Get("n")
	vb, _ := b.Get("n")
	if !bytes.Equal(va, vb) || Counter(va) != 2 {
		t.Fatalf("counters diverged: %v vs %v", va, vb)
	}
	// INCR must not leak the counter value in its result (that would break
	// commutativity of replies).
	if r := a.Apply(incr("n")); r.Value != nil {
		t.Fatalf("INCR returned a value: %+v", r)
	}
}

func TestIncrOnCorruptValueResets(t *testing.T) {
	s := New()
	s.Apply(put("n", "not-8-bytes"))
	s.Apply(incr("n"))
	v, _ := s.Get("n")
	if Counter(v) != 1 {
		t.Fatalf("counter = %d, want 1", Counter(v))
	}
}

func TestNoopAndUnknownOp(t *testing.T) {
	s := New()
	if r := s.Apply(types.Command{Op: types.OpNoop}); !r.OK {
		t.Fatal("noop failed")
	}
	if r := s.Apply(types.Command{Op: types.Op(99)}); r.OK {
		t.Fatal("unknown op succeeded")
	}
	if s.Len() != 0 {
		t.Fatal("noop mutated state")
	}
}

func TestResultValueIsCopied(t *testing.T) {
	s := New()
	s.Apply(put("k", "abc"))
	r := s.Apply(get("k"))
	r.Value[0] = 'X'
	r2 := s.Apply(get("k"))
	if string(r2.Value) != "abc" {
		t.Fatal("result aliases store memory")
	}
}

func TestCommandValueIsCopied(t *testing.T) {
	s := New()
	val := []byte("abc")
	s.Apply(types.Command{Op: types.OpPut, Key: "k", Value: val})
	val[0] = 'X'
	if v, _ := s.Get("k"); string(v) != "abc" {
		t.Fatal("store aliases caller memory")
	}
}

func TestDigestTracksFinalOnly(t *testing.T) {
	s := New()
	d0 := s.Digest()
	s.SpecExecute(put("k", "spec"))
	if s.Digest() != d0 {
		t.Fatal("digest changed on speculative write")
	}
	s.PromoteFinal(put("k", "v"))
	d1 := s.Digest()
	if d1 == d0 {
		t.Fatal("digest unchanged by final write")
	}
	// Same logical state → same digest, independent of history.
	o := New()
	o.PromoteFinal(put("k", "v"))
	if o.Digest() != d1 {
		t.Fatal("equal states produced different digests")
	}
}

func TestStatsCounters(t *testing.T) {
	s := New()
	s.SpecExecute(get("a"))
	s.SpecExecute(get("a"))
	s.PromoteFinal(put("a", "1"))
	s.Rollback()
	f, sp, rb := s.Stats()
	if f != 1 || sp != 2 || rb != 1 {
		t.Fatalf("stats = %d,%d,%d", f, sp, rb)
	}
}

// Property: for any command sequence, executing speculatively and then
// replaying the same sequence finally after rollback yields identical
// results — the core guarantee the fast path relies on.
func TestSpecThenFinalReplayEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		cmds := make([]types.Command, n)
		for i := range cmds {
			key := fmt.Sprintf("k%d", rng.Intn(5))
			switch rng.Intn(3) {
			case 0:
				cmds[i] = get(key)
			case 1:
				cmds[i] = put(key, fmt.Sprintf("v%d", rng.Intn(100)))
			default:
				cmds[i] = incr(key)
			}
		}
		s := New()
		specResults := make([]types.Result, n)
		for i, c := range cmds {
			specResults[i] = s.SpecExecute(c)
		}
		s.Rollback()
		for i, c := range cmds {
			if r := s.PromoteFinal(c); !r.Equal(specResults[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: two stores that execute the same final sequence have equal
// digests; digests are insensitive to interleaved speculation.
func TestDigestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		a, b := New(), New()
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(4))
			cmd := put(key, fmt.Sprintf("v%d", rng.Intn(50)))
			a.PromoteFinal(cmd)
			b.SpecExecute(get(key)) // extra speculation on b
			b.PromoteFinal(cmd)
		}
		b.Rollback()
		return a.Digest() == b.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculateRollbackSteadyState: a replica speculates on a key and rolls
// back after every execution pass, forever. The overlay is emptied in
// place, so the cycle costs the store nothing of its own — zero allocations
// with a nil value (the measurement TestExecutePassScratchReuse in core uses),
// exactly the one copy of the value otherwise — and what Rollback discards
// is really gone.
func TestSpeculateRollbackSteadyState(t *testing.T) {
	s := New()
	s.PromoteFinal(put("k", "final"))
	cycle := func(cmd types.Command) func() {
		return func() {
			s.SpecExecute(cmd)
			s.Rollback()
		}
	}
	bare := types.Command{Op: types.OpPut, Key: "k"}
	withValue := put("k", "speculative")
	cycle(bare)() // first use may size the overlay
	if !race.Enabled {
		if n := testing.AllocsPerRun(200, cycle(bare)); n != 0 {
			t.Errorf("SpecExecute+Rollback on an existing key allocates %v times, want 0", n)
		}
		if n := testing.AllocsPerRun(200, cycle(withValue)); n != 1 {
			t.Errorf("SpecExecute+Rollback of a PUT with a value allocates %v times, want 1 (the value's copy)", n)
		}
	}
	s.SpecExecute(withValue)
	if res := s.SpecExecute(get("k")); string(res.Value) != "speculative" {
		t.Fatalf("speculative read = %q", res.Value)
	}
	s.Rollback()
	if res := s.SpecExecute(get("k")); string(res.Value) != "final" {
		t.Fatalf("read after Rollback = %q, want the final value", res.Value)
	}
}
