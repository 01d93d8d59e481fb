package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ezbft/internal/race"
	"ezbft/internal/types"
)

// referenceDigest and referenceSnapshot are frozen copies of the
// sort-on-every-call implementations the key index replaced. Their output is
// the definition the index must reproduce byte for byte.
func referenceDigest(s *Store) types.Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var lenBuf [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(k)))
		h.Write(lenBuf[:])
		h.Write([]byte(k))
		v := s.final[k]
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(v)))
		h.Write(lenBuf[:])
		h.Write(v)
	}
	var d types.Digest
	copy(d[:], h.Sum(nil))
	return d
}

func referenceSnapshot(s *Store) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(keys)))
	out = append(out, lenBuf[:]...)
	for _, k := range keys {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(k)))
		out = append(out, lenBuf[:]...)
		out = append(out, k...)
		v := s.final[k]
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(v)))
		out = append(out, lenBuf[:]...)
		out = append(out, v...)
	}
	return out
}

// randomCommand draws a Put/Incr/Noop/Get over a key space that keeps
// growing, so the index sees both new keys and overwrites.
func randomCommand(rng *rand.Rand, keys int) types.Command {
	key := fmt.Sprintf("k%03d", rng.Intn(keys))
	switch rng.Intn(4) {
	case 0:
		return put(key, fmt.Sprintf("v%d", rng.Intn(1000)))
	case 1:
		return incr(key)
	case 2:
		return types.Command{Op: types.OpNoop}
	default:
		return get(key)
	}
}

// TestDigestAndSnapshotMatchReference: through new keys, overwrites,
// speculation and Restore, the indexed Digest and Snapshot equal the frozen
// reference after every step.
func TestDigestAndSnapshotMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	for step := 0; step < 600; step++ {
		switch rng.Intn(10) {
		case 0:
			s.SpecExecute(randomCommand(rng, 40+step))
		case 1:
			if step%50 == 0 {
				o := New()
				for i := 0; i < rng.Intn(30); i++ {
					o.Apply(randomCommand(rng, 60))
				}
				if err := s.Restore(o.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
		default:
			s.Apply(randomCommand(rng, 40+step))
		}
		if step%3 == 0 {
			if got, want := s.Digest(), referenceDigest(s); got != want {
				t.Fatalf("step %d: Digest %s, reference %s", step, got, want)
			}
		}
		if step%7 == 0 {
			if got, want := s.Snapshot(), referenceSnapshot(s); !bytes.Equal(got, want) {
				t.Fatalf("step %d: Snapshot differs from the reference", step)
			}
		}
	}
}

// TestRetainedStateSerializesAsItWas: random command sequences, a state
// retained at random points with at most two generations live (as
// engine.StateKeeper keeps them); each retained state, serialized later,
// equals the eager Snapshot taken when it was retained. Restore drops every
// retained state.
func TestRetainedStateSerializesAsItWas(t *testing.T) {
	type kept struct {
		ret  types.Retained
		want []byte
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		if seed%2 == 0 {
			s.Digest() // half the runs index before retaining
		}
		var live []kept
		for step := 0; step < 400; step++ {
			s.Apply(randomCommand(rng, 10+step/4))
			if rng.Intn(25) == 0 {
				live = append(live, kept{s.Retain(), s.Snapshot()})
				if len(live) > 2 {
					live[0].ret.Release()
					if _, ok := live[0].ret.Snapshot(); ok {
						t.Fatalf("seed %d: a released state still serializes", seed)
					}
					live = live[1:]
				}
			}
			if rng.Intn(10) == 0 {
				for i, k := range live {
					got, ok := k.ret.Snapshot()
					if !ok || !bytes.Equal(got, k.want) {
						t.Fatalf("seed %d step %d: generation %d serializes differently from the snapshot taken when it was retained", seed, step, i)
					}
				}
			}
		}
		if err := s.Restore(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for _, k := range live {
			if _, ok := k.ret.Snapshot(); ok {
				t.Fatalf("seed %d: a retained state survived Restore", seed)
			}
			k.ret.Release() // harmless after the drop
		}
		if len(s.retained) != 0 || len(s.undo) != 0 {
			t.Fatalf("seed %d: the store keeps undo records after Restore", seed)
		}
	}
}

// TestRetainUnderConcurrentObservers: the replica's goroutine applies,
// speculates, rolls back and retains states while other goroutines call
// Digest, Get and the retained state's Snapshot — the concurrent observers
// types.Application allows. Every retained state still serializes as the
// snapshot taken with it. Meant for -race.
func TestRetainUnderConcurrentObservers(t *testing.T) {
	s := New()
	const rounds = 20
	for round := 0; round < rounds; round++ {
		ret, want := s.Retain(), s.Snapshot()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		observe := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						f()
					}
				}
			}()
		}
		observe(func() { s.Digest() })
		observe(func() { s.Get(fmt.Sprintf("k%d", round%17)) })
		observe(func() {
			if got, ok := ret.Snapshot(); !ok || !bytes.Equal(got, want) {
				t.Errorf("round %d: a concurrent reader saw the retained state change", round)
			}
		})
		for i := 0; i < 50; i++ {
			s.PromoteFinal(put(fmt.Sprintf("k%d", i%17), fmt.Sprintf("%d", round)))
			s.PromoteFinal(incr("n"))
			s.SpecExecute(put("spec", "x"))
			s.Rollback()
		}
		close(stop)
		wg.Wait()
		if got, ok := ret.Snapshot(); !ok || !bytes.Equal(got, want) {
			t.Fatalf("round %d: retained state changed under writes", round)
		}
		ret.Release()
	}
}

// TestDigestAllocations: once the index is built, Digest allocates nothing,
// and Retain costs the same at 1 k and 8 k keys.
func TestDigestAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, n := range []int{1024, 8192} {
		s := New()
		for i := 0; i < n; i++ {
			s.Apply(put(fmt.Sprintf("key-%05d", i), "0123456789abcdef"))
		}
		s.Digest()
		if a := testing.AllocsPerRun(20, func() { s.Digest() }); a != 0 {
			t.Errorf("%d keys: Digest allocates %v times, want 0", n, a)
		}
		if a := testing.AllocsPerRun(20, func() { s.Retain().Release() }); a != 1 {
			t.Errorf("%d keys: Retain+Release allocates %v times, want 1", n, a)
		}
	}
}

// TestWriteStateMatchesSnapshot: streaming the live state, or a retained
// one after later writes, writes exactly the bytes Snapshot returns, after
// telling size their number; an error from size writes nothing, and a
// released state refuses to stream.
func TestWriteStateMatchesSnapshot(t *testing.T) {
	s := New()
	for i := 0; i < 900; i++ {
		s.Apply(put(fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%d", i*i)))
	}
	ret, wantRet := s.Retain(), s.Snapshot()
	for i := 0; i < 300; i++ {
		s.Apply(put(fmt.Sprintf("key-%04d", i*3), "changed"))
		s.Apply(put(fmt.Sprintf("new-%04d", i), "added"))
	}
	stream := func(sw types.StateWriter) []byte {
		var out bytes.Buffer
		told := -1
		if err := sw.WriteState(&out, func(n int) error { told = n; return nil }); err != nil {
			t.Fatal(err)
		}
		if told != out.Len() {
			t.Fatalf("size told %d bytes, %d written", told, out.Len())
		}
		return out.Bytes()
	}
	if got, want := stream(s), s.Snapshot(); len(want) < 4*writeChunk || !bytes.Equal(got, want) {
		t.Fatalf("the live state streamed %d bytes unlike its %d-byte snapshot", len(got), len(want))
	}
	if got := stream(ret.(types.StateWriter)); !bytes.Equal(got, wantRet) {
		t.Fatalf("the retained state streamed %d bytes unlike its %d-byte snapshot", len(got), len(wantRet))
	}
	errStop := fmt.Errorf("stop")
	var out bytes.Buffer
	if err := s.WriteState(&out, func(int) error { return errStop }); err != errStop || out.Len() != 0 {
		t.Fatalf("a refusing size returned %v after %d bytes; want its error and nothing written", err, out.Len())
	}
	ret.Release()
	if err := ret.(types.StateWriter).WriteState(&out, func(int) error { return nil }); err == nil || out.Len() != 0 {
		t.Fatal("a released state streamed")
	}
}
