package types

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"ezbft/internal/race"
)

func TestNodeIDRoundTrip(t *testing.T) {
	for _, r := range []ReplicaID{0, 1, 3, 100} {
		n := ReplicaNode(r)
		if !n.IsReplica() || n.IsClient() {
			t.Fatalf("ReplicaNode(%v) misclassified", r)
		}
		if got := n.Replica(); got != r {
			t.Fatalf("Replica() = %v, want %v", got, r)
		}
	}
	for _, c := range []ClientID{0, 1, 42, 9999} {
		n := ClientNode(c)
		if !n.IsClient() || n.IsReplica() {
			t.Fatalf("ClientNode(%v) misclassified", c)
		}
		if got := n.Client(); got != c {
			t.Fatalf("Client() = %v, want %v", got, c)
		}
	}
}

func TestOwnerNumberOwnerOf(t *testing.T) {
	const n = 4
	// Initially the owner number of space Ri equals i, so OwnerOf returns Ri.
	for i := 0; i < n; i++ {
		if got := OwnerNumber(i).OwnerOf(n); got != ReplicaID(i) {
			t.Fatalf("OwnerNumber(%d).OwnerOf(%d) = %v, want R%d", i, n, got, i)
		}
	}
	// Incrementing the owner number rotates ownership to the next replica.
	if got := OwnerNumber(2 + 1).OwnerOf(n); got != 3 {
		t.Fatalf("owner after change = %v, want R3", got)
	}
	if got := OwnerNumber(3 + 1).OwnerOf(n); got != 0 {
		t.Fatalf("owner wraps to %v, want R0", got)
	}
}

func TestInterference(t *testing.T) {
	cmd := func(op Op, key string) Command {
		return Command{Client: 1, Timestamp: 1, Op: op, Key: key}
	}
	cases := []struct {
		name string
		a, b Command
		want bool
	}{
		{"put-put same key", cmd(OpPut, "x"), cmd(OpPut, "x"), true},
		{"put-get same key", cmd(OpPut, "x"), cmd(OpGet, "x"), true},
		{"get-put same key", cmd(OpGet, "x"), cmd(OpPut, "x"), true},
		{"get-get same key", cmd(OpGet, "x"), cmd(OpGet, "x"), false},
		{"incr-incr same key commute", cmd(OpIncr, "x"), cmd(OpIncr, "x"), false},
		{"incr-get same key", cmd(OpIncr, "x"), cmd(OpGet, "x"), true},
		{"incr-put same key", cmd(OpIncr, "x"), cmd(OpPut, "x"), true},
		{"put-put different key", cmd(OpPut, "x"), cmd(OpPut, "y"), false},
		{"noop never interferes", cmd(OpNoop, "x"), cmd(OpPut, "x"), false},
		// Op bytes no operation owns still decode (the codec does not
		// validate Op): they order like a mutation of their own key.
		{"unknown-get same key", cmd(Op(5), "x"), cmd(OpGet, "x"), true},
		{"put-unknown same key", cmd(OpPut, "x"), cmd(Op(255), "x"), true},
		{"unknown-get different key", cmd(Op(5), "x"), cmd(OpGet, "y"), false},
		{"put-unknown different key", cmd(OpPut, "x"), cmd(Op(255), "y"), false},
	}
	for _, tc := range cases {
		if got := tc.a.Interferes(tc.b); got != tc.want {
			t.Errorf("%s: Interferes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Interference must be symmetric: it is defined over unordered command pairs,
// for every op byte a client can send, not only the ones an operation owns.
func TestInterferenceSymmetric(t *testing.T) {
	for op1 := range 256 {
		for op2 := range 256 {
			for _, k2 := range []string{"x", "y"} {
				a := Command{Op: Op(op1), Key: "x"}
				b := Command{Op: Op(op2), Key: k2}
				if a.Interferes(b) != b.Interferes(a) {
					t.Fatalf("%v on x and %v on %s: Interferes is not symmetric", a.Op, b.Op, k2)
				}
			}
		}
	}
}

func TestCommandDigestDistinguishes(t *testing.T) {
	base := Command{Client: 1, Timestamp: 7, Op: OpPut, Key: "k", Value: []byte("v")}
	variants := []Command{
		{Client: 2, Timestamp: 7, Op: OpPut, Key: "k", Value: []byte("v")},
		{Client: 1, Timestamp: 8, Op: OpPut, Key: "k", Value: []byte("v")},
		{Client: 1, Timestamp: 7, Op: OpGet, Key: "k", Value: []byte("v")},
		{Client: 1, Timestamp: 7, Op: OpPut, Key: "kk", Value: []byte("v")},
		{Client: 1, Timestamp: 7, Op: OpPut, Key: "k", Value: []byte("vv")},
	}
	d := base.Digest()
	for i, v := range variants {
		if v.Digest() == d {
			t.Errorf("variant %d has colliding digest", i)
		}
	}
	if base.Digest() != d {
		t.Error("digest is not deterministic")
	}
}

// The digest must not be confusable across field boundaries (length-prefixed
// key prevents "ab"+"c" == "a"+"bc").
func TestCommandDigestBoundary(t *testing.T) {
	a := Command{Op: OpPut, Key: "ab", Value: []byte("c")}
	b := Command{Op: OpPut, Key: "a", Value: []byte("bc")}
	if a.Digest() == b.Digest() {
		t.Fatal("digest collision across key/value boundary")
	}
}

func TestInstanceSetOps(t *testing.T) {
	a := NewInstanceSet(InstanceID{0, 1}, InstanceID{1, 1})
	b := NewInstanceSet(InstanceID{1, 1}, InstanceID{2, 5})
	if !a.Has(InstanceID{0, 1}) || a.Has(InstanceID{2, 5}) {
		t.Fatal("Has misbehaves")
	}
	c := a.Clone()
	c.Union(b)
	if len(c) != 3 {
		t.Fatalf("union size = %d, want 3", len(c))
	}
	if len(a) != 2 {
		t.Fatal("Union mutated the clone source")
	}
	if !c.Has(InstanceID{2, 5}) {
		t.Fatal("union missing member")
	}
	if a.Equal(b) {
		t.Fatal("distinct sets reported equal")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal to source")
	}
}

func TestInstanceSetSortedDeterministic(t *testing.T) {
	s := NewInstanceSet(
		InstanceID{2, 1}, InstanceID{0, 9}, InstanceID{0, 2}, InstanceID{1, 5},
	)
	want := []InstanceID{{0, 2}, {0, 9}, {1, 5}, {2, 1}}
	if !slices.Equal(s, want) {
		t.Fatalf("members %v, want %v", s, want)
	}
}

func TestResultEqual(t *testing.T) {
	a := Result{OK: true, Value: []byte("x")}
	if !a.Equal(Result{OK: true, Value: []byte("x")}) {
		t.Fatal("equal results reported unequal")
	}
	if a.Equal(Result{OK: false, Value: []byte("x")}) {
		t.Fatal("OK mismatch not detected")
	}
	if a.Equal(Result{OK: true, Value: []byte("y")}) {
		t.Fatal("value mismatch not detected")
	}
	if a.Equal(Result{OK: true}) {
		t.Fatal("length mismatch not detected")
	}
}

func TestCommandEqual(t *testing.T) {
	a := Command{Client: 1, Timestamp: 2, Op: OpPut, Key: "k", Value: []byte("v")}
	if !a.Equal(a) {
		t.Fatal("command not equal to itself")
	}
	b := a
	b.Value = []byte("w")
	if a.Equal(b) {
		t.Fatal("value mismatch not detected")
	}
}

// referenceDigest is Command.Digest as it was first written — the fields
// streamed into a hash one by one; Digest lays the same preimage out in one
// buffer and must produce the same bytes at every size, on either side of
// its stack buffer's capacity.
func referenceDigest(c Command) Digest {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(uint32(c.Client)))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], c.Timestamp)
	h.Write(buf[:])
	h.Write([]byte{byte(c.Op)})
	binary.BigEndian.PutUint64(buf[:], uint64(len(c.Key)))
	h.Write(buf[:])
	h.Write([]byte(c.Key))
	h.Write(c.Value)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func TestCommandDigestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 16, 150, 166, 167, 168, 192, 500, 5000} {
		value := make([]byte, size)
		rng.Read(value)
		c := Command{Client: ClientID(rng.Int31()), Timestamp: rng.Uint64(), Op: OpPut, Key: "k", Value: value}
		if c.Digest() != referenceDigest(c) {
			t.Fatalf("digest of a command with a %d-byte value differs from the reference", size)
		}
		c.Key, c.Client = string(value), -1
		if c.Digest() != referenceDigest(c) {
			t.Fatalf("digest of a command with a %d-byte key differs from the reference", size)
		}
	}
}

// TestInstanceSetAllocations pins what the flat representation is for: the
// empty set costs nothing anywhere, and a command digest stays on the stack.
func TestInstanceSetAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	var empty InstanceSet
	full := NewInstanceSet(InstanceID{0, 1}, InstanceID{1, 2})
	cmd := Command{Client: 3, Timestamp: 9, Op: OpPut, Key: "key-000123", Value: make([]byte, 16)}
	var sink InstanceSet
	var digest Digest
	for name, fn := range map[string]func(){
		"NewInstanceSet()":       func() { sink = NewInstanceSet() },
		"Clone of the empty set": func() { sink = empty.Clone() },
		"Union with the empty set": func() {
			s := full
			sink = s.Union(empty)
		},
		"Union into the empty set": func() {
			var s InstanceSet
			sink = s.Union(full)
		},
		"Union that adds nothing": func() {
			s := full
			sink = s.Union(full[:1])
		},
		"Command.Digest": func() { digest = cmd.Digest() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = full.Clone() }); n != 1 {
		t.Errorf("Clone of a non-empty set allocates %v times, want 1", n)
	}
	_, _ = sink, digest
}

// TestInstanceSetMatchesMapModel drives the slice set and the map it
// replaced through the same random operations and requires, after every
// step, equal membership and the sorted, duplicate-free order the codec and
// the dependency graph rely on — and that no operation writes into a set
// that was merely copied from the one it changes.
func TestInstanceSetMatchesMapModel(t *testing.T) {
	type model map[InstanceID]struct{}
	check := func(t *testing.T, step int, op string, s InstanceSet, m model) {
		t.Helper()
		if len(s) != len(m) {
			t.Fatalf("step %d (%s): %d members, model has %d", step, op, len(s), len(m))
		}
		for i, id := range s {
			if _, ok := m[id]; !ok {
				t.Fatalf("step %d (%s): %v not in the model", step, op, id)
			}
			if i > 0 && s[i-1].Compare(id) >= 0 {
				t.Fatalf("step %d (%s): %v before %v: not sorted and duplicate-free", step, op, s[i-1], id)
			}
		}
		for id := range m {
			if !s.Has(id) {
				t.Fatalf("step %d (%s): Has(%v) false, model has it", step, op, id)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randID := func() InstanceID {
			return InstanceID{Space: ReplicaID(rng.Intn(4)), Slot: uint64(1 + rng.Intn(12))}
		}
		randIDs := func() []InstanceID { // unsorted, with repeats
			ids := make([]InstanceID, rng.Intn(8))
			for i := range ids {
				ids[i] = randID()
			}
			return ids
		}
		var s InstanceSet
		m := model{}
		for step := 0; step < 400; step++ {
			// A plain copy taken before the operation must still read the
			// same afterwards (value semantics, no write into shared storage).
			before, beforeMembers := s, slices.Clone(s)
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "Add"
				id := randID()
				s.Add(id)
				m[id] = struct{}{}
			case 1:
				op = "Union"
				ids := randIDs()
				got := s.Union(NewInstanceSet(ids...))
				for _, id := range ids {
					m[id] = struct{}{}
				}
				if !got.Equal(s) {
					t.Fatalf("step %d: Union returned %v, receiver is %v", step, got, s)
				}
			case 2:
				op = "NewInstanceSet"
				ids := randIDs()
				s, m = NewInstanceSet(ids...), model{}
				for _, id := range ids {
					m[id] = struct{}{}
				}
			case 3:
				op = "Clone"
				c := s.Clone()
				if !c.Equal(s) || !s.Equal(c) {
					t.Fatalf("step %d: clone %v != source %v", step, c, s)
				}
				c.Add(InstanceID{Space: 9, Slot: 9})
				if s.Has(InstanceID{Space: 9, Slot: 9}) {
					t.Fatalf("step %d: Add on a clone reached the source", step)
				}
				s = c[:len(c)-1] // drop it again: <R9,9> sorts last
			case 4:
				op = "Equal"
				o := NewInstanceSet(randIDs()...)
				same := len(o) == len(m)
				for _, id := range o {
					if _, ok := m[id]; !ok {
						same = false
					}
				}
				if s.Equal(o) != same {
					t.Fatalf("step %d: Equal(%v, %v) = %v, model says %v", step, s, o, !same, same)
				}
			case 5:
				op = "Has"
				id := randID()
				if _, ok := m[id]; s.Has(id) != ok {
					t.Fatalf("step %d: Has(%v) = %v, model says %v", step, id, !ok, ok)
				}
			}
			check(t, step, op, s, m)
			if !slices.Equal(before, beforeMembers) {
				t.Fatalf("step %d (%s): a copy taken before the operation changed from %v to %v", step, op, beforeMembers, before)
			}
		}
	}
}
