// Package types defines the identifiers, commands, and application
// interfaces shared by every protocol in this repository.
//
// ezBFT (Arun et al., ICDCS 2019) orders client commands across per-replica
// instance spaces; the types here mirror the paper's vocabulary: replica and
// client identifiers, instance numbers (instance-space identifier + slot),
// owner numbers, sequence numbers, and the command interference relation.
package types

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// ReplicaID identifies one of the N replicas (0..N-1).
type ReplicaID int32

// String implements fmt.Stringer.
func (r ReplicaID) String() string { return fmt.Sprintf("R%d", int32(r)) }

// ClientID identifies a client node.
type ClientID int32

// String implements fmt.Stringer.
func (c ClientID) String() string { return fmt.Sprintf("c%d", int32(c)) }

// NodeID identifies any node (replica or client) on a transport. Replicas
// occupy [0, clientBase); clients occupy [clientBase, ...). The split keeps
// a single flat address space for transports while letting protocol code
// distinguish the two roles.
type NodeID int32

const clientBase NodeID = 1 << 20

// ReplicaNode converts a replica identifier to its transport address.
func ReplicaNode(r ReplicaID) NodeID { return NodeID(r) }

// ClientNode converts a client identifier to its transport address.
func ClientNode(c ClientID) NodeID { return clientBase + NodeID(c) }

// IsReplica reports whether the node address belongs to a replica.
func (n NodeID) IsReplica() bool { return n >= 0 && n < clientBase }

// IsClient reports whether the node address belongs to a client.
func (n NodeID) IsClient() bool { return n >= clientBase }

// Replica returns the replica identifier for a replica node address.
func (n NodeID) Replica() ReplicaID { return ReplicaID(n) }

// Client returns the client identifier for a client node address.
func (n NodeID) Client() ClientID { return ClientID(n - clientBase) }

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n.IsClient() {
		return n.Client().String()
	}
	return n.Replica().String()
}

// InstanceID names one slot in one replica's instance space: the paper's
// instance number I = (instance-space identifier, slot identifier).
type InstanceID struct {
	Space ReplicaID // owner replica of the instance space
	Slot  uint64    // slot within the space, starting at 1
}

// String implements fmt.Stringer.
func (i InstanceID) String() string { return fmt.Sprintf("<%s,%d>", i.Space, i.Slot) }

// Less orders instances first by space then by slot; used only for
// deterministic iteration, never for execution ordering.
func (i InstanceID) Less(o InstanceID) bool {
	if i.Space != o.Space {
		return i.Space < o.Space
	}
	return i.Slot < o.Slot
}

// Compare is Less as a three-way comparison, the shape slices.SortFunc
// takes (unlike sort.Slice it neither boxes the slice nor builds a
// reflective swapper, so sorting allocates nothing).
func (i InstanceID) Compare(o InstanceID) int {
	if c := cmp.Compare(i.Space, o.Space); c != 0 {
		return c
	}
	return cmp.Compare(i.Slot, o.Slot)
}

// OwnerNumber is the paper's monotonically increasing owner number O for an
// instance space. The current owner replica of space s is O mod N; the
// number starts equal to the space's own replica identifier.
type OwnerNumber uint64

// OwnerOf returns the replica that owns an instance space with owner number
// o in a cluster of n replicas.
func (o OwnerNumber) OwnerOf(n int) ReplicaID { return ReplicaID(uint64(o) % uint64(n)) }

// SeqNumber is the paper's globally shared sequence number S used to break
// dependency cycles; always larger than the sequence numbers of all
// interfering commands.
type SeqNumber uint64

// Op enumerates key-value store operations. Enums start at 1 so the zero
// value is detectably invalid.
type Op uint8

// Key-value operations carried by commands.
const (
	OpGet Op = iota + 1
	OpPut
	OpIncr // read-modify-write: demonstrates commutativity-based interference
	OpNoop // used to finalize unrecoverable instances after owner changes
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpIncr:
		return "INCR"
	case OpNoop:
		return "NOOP"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Command encapsulates an operation that must be executed on the shared
// state, together with the issuing client and its timestamp (the paper's t,
// used for exactly-once semantics).
type Command struct {
	Client    ClientID
	Timestamp uint64 // per-client monotonically increasing
	Op        Op
	Key       string
	Value     []byte
}

// IsNoop reports whether the command is the distinguished no-op.
func (c Command) IsNoop() bool { return c.Op == OpNoop }

// Digest returns a collision-resistant digest of the command, the paper's
// d = H(m). The preimage (client, timestamp, op, key length, key, value) is
// laid out in one buffer and hashed in one call: a command of ordinary size
// fits the stack buffer and the digest allocates nothing; a larger one
// spills to a single heap buffer.
func (c Command) Digest() Digest {
	var stack [192]byte
	b := binary.BigEndian.AppendUint64(stack[:0], uint64(uint32(c.Client)))
	b = binary.BigEndian.AppendUint64(b, c.Timestamp)
	b = append(b, byte(c.Op))
	b = binary.BigEndian.AppendUint64(b, uint64(len(c.Key)))
	b = append(b, c.Key...)
	b = append(b, c.Value...)
	return sha256.Sum256(b)
}

// Interferes reports whether two commands interfere: executing them in
// different orders on some state can produce different final states. For the
// key-value application this is the paper's definition restricted to
// accesses on the same key where at least one is a mutation. Two GETs never
// interfere; note that, per the paper's comparison with Q/U, two INCRs on
// the same key commute and therefore do not interfere, while PUTs conflict
// with everything on the same key (including GETs, whose results differ).
func (c Command) Interferes(o Command) bool {
	if c.Op == OpNoop || o.Op == OpNoop {
		return false
	}
	if c.Key != o.Key {
		return false
	}
	if c.Op == OpGet && o.Op == OpGet {
		return false
	}
	if c.Op == OpIncr && o.Op == OpIncr {
		return false // commutative read-modify-writes, per §VI (Q/U comparison)
	}
	return true
}

// Equal reports whether two commands are identical.
func (c Command) Equal(o Command) bool {
	if c.Client != o.Client || c.Timestamp != o.Timestamp || c.Op != o.Op || c.Key != o.Key {
		return false
	}
	if len(c.Value) != len(o.Value) {
		return false
	}
	for i := range c.Value {
		if c.Value[i] != o.Value[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("%s@%d:%s(%q)", c.Client, c.Timestamp, c.Op, c.Key)
}

// Digest is a SHA-256 digest.
type Digest [32]byte

// String implements fmt.Stringer; prints a short prefix.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:4]) }

// DigestBytes hashes an arbitrary byte string.
func DigestBytes(b []byte) Digest {
	return Digest(sha256.Sum256(b))
}

// Result is the outcome of executing one command on the application.
type Result struct {
	OK    bool
	Value []byte
}

// Equal reports whether two results are identical.
func (r Result) Equal(o Result) bool {
	if r.OK != o.OK || len(r.Value) != len(o.Value) {
		return false
	}
	for i := range r.Value {
		if r.Value[i] != o.Value[i] {
			return false
		}
	}
	return true
}

// Application is the replicated state machine on which committed commands
// are executed — the pluggable contract every protocol replica drives.
// Implementations must be deterministic: the same sequence of Apply calls
// from the same initial state must produce the same results and the same
// Digest on every replica. A replica owns its application instance and
// calls it from a single goroutine, but on the live substrates other
// goroutines may observe it (state digests, inspection reads) while the
// replica executes, so Digest must be safe to call concurrently with Apply.
type Application interface {
	// Apply executes one committed command and returns its result.
	Apply(cmd Command) Result
	// Digest returns a deterministic digest of the application state, used
	// for checkpoint certificates and replica state cross-checks. Replicas
	// that applied the same command sequence must report equal digests.
	Digest() Digest
}

// Checkpointer is the optional checkpointing hook an Application may
// implement: protocols that garbage-collect their logs against stable
// checkpoints (PBFT) call it when a checkpoint becomes stable — 2f+1
// replicas vouched for the same state digest at sequence number seq — so
// the application can snapshot, truncate its own journal, or release
// resources that predate the checkpoint.
type Checkpointer interface {
	// Checkpoint reports a stable checkpoint at sequence number seq whose
	// agreed state digest is digest.
	Checkpoint(seq uint64, digest Digest)
}

// Snapshotter is the optional state-transfer hook an Application may
// implement: protocols that catch lagging replicas up past a truncated log
// (checkpoint-based state transfer) serialize the application state on the
// serving replica and install it on the rejoining one. Snapshot must cover
// only the final (non-speculative) state and must be deterministic — two
// replicas with equal Digests must produce snapshots that Restore to equal
// Digests. Restore replaces the application state wholesale; speculative
// overlays are discarded separately (Rollback) by the protocol.
// Applications that do not implement Snapshotter can still checkpoint and
// truncate, but replicas that fall behind the low-water mark cannot rejoin
// via state transfer.
type Snapshotter interface {
	// Snapshot serializes the current final application state.
	Snapshot() []byte
	// Restore replaces the application state with a previously captured
	// snapshot.
	Restore(snap []byte) error
}

// StateWriter is the optional capability that lets a replica stream a
// serialized state into its durable snapshot instead of building it in
// memory first: a Snapshotter implements it for its current final state, a
// Retained for the state it pins (the reference key-value store does both).
// Without it the state's Snapshot bytes are written (StateBytes).
type StateWriter interface {
	// WriteState writes exactly the bytes Snapshot returns to w. Before the
	// first of them it calls size with their number, so the caller can
	// length-prefix them; an error from size or from w aborts the write
	// and is returned.
	WriteState(w io.Writer, size func(n int) error) error
}

// StateBytes is a state already serialized, as a StateWriter.
type StateBytes []byte

// WriteState implements StateWriter.
func (b StateBytes) WriteState(w io.Writer, size func(n int) error) error {
	if err := size(len(b)); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// LiveState returns the writer of app's current final state: app itself
// if it is a StateWriter, else its Snapshot bytes.
func LiveState(app Snapshotter) StateWriter {
	if sw, ok := app.(StateWriter); ok {
		return sw
	}
	return StateBytes(app.Snapshot())
}

// Retainer is the optional capability a Snapshotter adds so that a
// checkpoint costs the replica's loop O(1) instead of a copy of the whole
// state: Retain pins the current final state without serializing it, and
// the pinned state is serialized later, only if someone asks for it (a
// state transfer, a durable snapshot cut). Applications without it are
// snapshotted eagerly at every checkpoint (engine.StateKeeper falls back).
type Retainer interface {
	Snapshotter
	// Retain pins the current final state in O(1) with respect to the
	// state's size.
	Retain() Retained
}

// Retained is a final state pinned by Retainer.Retain.
type Retained interface {
	// Snapshot returns exactly the bytes the application's Snapshot would
	// have returned when the state was retained. It reports false once the
	// state is no longer held: after Release, or after a Restore, which
	// drops every retained state.
	Snapshot() ([]byte, bool)
	// Release lets the application forget the state and whatever it kept
	// to reconstruct it.
	Release()
}

// SpeculativeApplication extends Application with the speculative-execution
// contract required by ezBFT: speculative results may later be rolled back
// and the commands re-executed in final order.
type SpeculativeApplication interface {
	Application

	// SpecExecute applies a command speculatively, on top of the latest
	// (speculative or final) state.
	SpecExecute(cmd Command) Result
	// Rollback discards all speculative effects, restoring the last final
	// state.
	Rollback()
	// PromoteFinal applies a command to the final state, invalidating any
	// speculative effects that depended on it. Equivalent to Apply on the
	// final version of the state.
	PromoteFinal(cmd Command) Result
}

// InstanceSet is a set of instance identifiers: the paper's dependency set
// D, held as a flat slice. Invariants, which every function here keeps and
// every holder may rely on:
//
//   - members are sorted by InstanceID.Compare and free of duplicates, so
//     ranging over a set is deterministic and encoding it needs no sorting;
//   - nil is the empty set (len(s) is the member count): an empty set costs
//     nothing to create, decode or Clone;
//   - a set is a value, not a reference as the map it replaced was. Add and
//     Union have pointer receivers and change the variable they are called
//     on — call them on the field or local that should change, never on a
//     copy of it — and they build their result in fresh storage, so a
//     backing array is never written once a set exists: plain copies of a
//     set (a message's Deps kept in a log entry, a log entry's in a reply)
//     stay what they were whatever happens to the original. Code that fills
//     a set member by member builds a slice and calls NewInstanceSet once;
//     code that writes into a set's elements directly must Clone first.
type InstanceSet []InstanceID

// NewInstanceSet builds a set from the given members, in any order and
// with repeats allowed.
func NewInstanceSet(ids ...InstanceID) InstanceSet {
	if len(ids) == 0 {
		return nil
	}
	s := slices.Clone(ids)
	slices.SortFunc(s, InstanceID.Compare)
	return slices.Compact(s)
}

// Add inserts an instance into the set.
func (s *InstanceSet) Add(id InstanceID) {
	a := *s
	i, found := slices.BinarySearchFunc(a, id, InstanceID.Compare)
	if found {
		return
	}
	out := make(InstanceSet, len(a)+1)
	copy(out, a[:i])
	out[i] = id
	copy(out[i+1:], a[i:])
	*s = out
}

// Has reports membership.
func (s InstanceSet) Has(id InstanceID) bool {
	_, found := slices.BinarySearchFunc(s, id, InstanceID.Compare)
	return found
}

// Clone returns an independent copy of the set.
func (s InstanceSet) Clone() InstanceSet { return slices.Clone(s) }

// Union inserts every member of o into s and returns the result. When o
// adds nothing s is left as it is; when s is empty it becomes o itself (sets
// are never written in place, so sharing is safe).
func (s *InstanceSet) Union(o InstanceSet) InstanceSet {
	a := *s
	if len(a) == 0 {
		*s = o
		return o
	}
	// Skip the common prefix of members o shares with s; if that is all of
	// o, s already is the union.
	i, j := 0, 0
	for i < len(a) && j < len(o) {
		c := a[i].Compare(o[j])
		if c > 0 {
			break
		}
		if c == 0 {
			j++
		}
		i++
	}
	if j == len(o) {
		return a
	}
	out := make(InstanceSet, i, len(a)+len(o)-j)
	copy(out, a[:i])
	for i < len(a) && j < len(o) {
		switch c := a[i].Compare(o[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, o[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, o[j:]...)
	*s = out
	return out
}

// Equal reports whether two sets have identical membership.
func (s InstanceSet) Equal(o InstanceSet) bool { return slices.Equal(s, o) }

// String implements fmt.Stringer.
func (s InstanceSet) String() string {
	out := "{"
	for i, id := range s {
		if i > 0 {
			out += ","
		}
		out += id.String()
	}
	return out + "}"
}
