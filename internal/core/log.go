package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"ezbft/internal/types"
)

// Status tracks a command's progress through the protocol at one replica.
type Status uint8

// Command statuses (monotonically increasing).
const (
	StatusNone        Status = iota
	StatusSpecOrdered        // spec-ordered and speculatively executed
	StatusCommitted          // final dependencies and sequence number fixed
	StatusExecuted           // finally executed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusSpecOrdered:
		return "spec-ordered"
	case StatusCommitted:
		return "committed"
	case StatusExecuted:
		return "executed"
	default:
		return "invalid"
	}
}

// entry is one slot of one instance space in a replica's command log. With
// owner-side batching one entry may order a whole batch of commands: cmd,
// specResult, and finalResult describe the first command (the only one when
// unbatched), and the extra* slices carry commands 2..k. The entry-level
// protocol state (deps, seq, status) is shared by the batch — the batch
// commits and executes as a unit, commands in batch order.
//
// Lifecycle: an entry is in its space's entries map from when it is logged
// until truncateSpace frees it, which zeroes it and puts it on the
// replica's free list for newEntry to hand out again. So nothing may hold
// an *entry past its truncation. The holders are the log, pendingExec
// (committed entries, never truncated before they execute) and
// depClosure's scratch (consumed within one tryExecute pass); HistEntries
// (hist, report), replies and WAL records copy fields, not the pointer.
// Code that goes on using an entry across a step that can stabilize a
// checkpoint (finalExecute's mark advance) copies what it needs first.
// Only the struct is reused, never what its slices point to: deps, extra,
// cmdDigests and the result slices are shared with SPECORDERs, replies,
// HistEntries and the decode memo, which must never see them change
// (codec/memo.go), so a reused entry is always given fresh ones.
type entry struct {
	inst      types.InstanceID
	owner     types.OwnerNumber
	cmd       types.Command   // first command of the batch
	extra     []types.Command // commands 2..k (nil when unbatched)
	cmdDigest types.Digest    // batch digest (= cmd's digest when unbatched)
	// cmdDigests caches every per-command digest for batched entries
	// (len == nCmds); nil when unbatched (cmdDigest covers the one command).
	cmdDigests []types.Digest
	deps       types.InstanceSet
	seq        types.SeqNumber
	status     Status

	specExecuted bool
	specResult   types.Result   // first command's speculative result
	finalResult  types.Result   // first command's final result
	extraSpec    []types.Result // speculative results for commands 2..k
	extraFinal   []types.Result // final results for commands 2..k

	// so retains the (signed) SPECORDER that introduced this entry; it is
	// the proof carried in owner-change histories and retransmitted on
	// RESENDREQ.
	so *SpecOrder
	// clientCommit retains the client-signed COMMIT for slow-path commits;
	// it is the Condition-1 proof in owner-change histories. fastCommit
	// retains the COMMITFAST for fast-path ones. Either is what this replica
	// answers a peer's COMMITFETCH with (commitfetch.go).
	clientCommit *Commit
	fastCommit   *CommitFast

	// commitReplyTo records, per batch position, the slow-path client to
	// answer after final execution (nil until a COMMIT arrives). A pointer,
	// not a slice, keeps entry in its allocation size class.
	commitReplyTo *replyList
}

// replyTo is a slow-path client owed a COMMITREPLY for the command at batch
// position idx.
type replyTo struct {
	idx    int32
	client types.ClientID
}

// replyList is an entry's replyTo records, sorted by position, with room
// for the usual single one inline: recording it is one small allocation.
type replyList struct {
	list []replyTo
	one  [1]replyTo
}

// newEntry returns a zero entry, from the free list when it has one.
func (r *Replica) newEntry() *entry {
	n := len(r.freeEntries)
	if n == 0 {
		return new(entry)
	}
	e := r.freeEntries[n-1]
	r.freeEntries[n-1] = nil
	r.freeEntries = r.freeEntries[:n-1]
	return e
}

// nCmds returns the number of commands the entry orders.
func (e *entry) nCmds() int { return 1 + len(e.extra) }

// cmdAt returns the i'th command of the batch (0 = cmd).
func (e *entry) cmdAt(i int) types.Command {
	if i == 0 {
		return e.cmd
	}
	return e.extra[i-1]
}

// digestAt returns the i'th command's digest, from the cache when batched.
func (e *entry) digestAt(i int) types.Digest {
	if e.cmdDigests == nil {
		return e.cmdDigest
	}
	return e.cmdDigests[i]
}

// setSpecResult records the i'th command's speculative result.
func (e *entry) setSpecResult(i int, res types.Result) {
	if i == 0 {
		e.specResult = res
		return
	}
	if e.extraSpec == nil {
		e.extraSpec = make([]types.Result, len(e.extra))
	}
	e.extraSpec[i-1] = res
}

// finalResultAt returns the i'th command's final result. Batched entries
// installed by a state transfer carry no per-command results (the suffix
// ships commands, not results); their positions read as the zero Result.
func (e *entry) finalResultAt(i int) types.Result {
	if i == 0 {
		return e.finalResult
	}
	if e.extraFinal == nil {
		return types.Result{}
	}
	return e.extraFinal[i-1]
}

// setFinalResult records the i'th command's final result.
func (e *entry) setFinalResult(i int, res types.Result) {
	if i == 0 {
		e.finalResult = res
		return
	}
	if e.extraFinal == nil {
		e.extraFinal = make([]types.Result, len(e.extra))
	}
	e.extraFinal[i-1] = res
}

// needCommitReply records a slow-path client to answer after the i'th
// command finally executes.
func (e *entry) needCommitReply(i int, to types.ClientID) {
	l := e.commitReplyTo
	if l == nil {
		l = new(replyList)
		l.list = l.one[:0]
		e.commitReplyTo = l
	}
	at, found := slices.BinarySearchFunc(l.list, int32(i), func(rt replyTo, idx int32) int {
		return cmp.Compare(rt.idx, idx)
	})
	if found {
		l.list[at].client = to
		return
	}
	l.list = slices.Insert(l.list, at, replyTo{idx: int32(i), client: to})
}

// space is one replica's view of one instance space.
type space struct {
	entries map[uint64]*entry
	maxSlot uint64
	// pending buffers out-of-order SPECORDERs until their slot is next.
	pending map[uint64]*SpecOrder
	// logHash is the chained digest h of the accepted prefix.
	logHash types.Digest
	// suspended is set when this replica commits to an owner change for
	// the space: it stops participating (paper §IV-E) until the NEWOWNER
	// message freezes the space for good.
	suspended bool
	frozen    bool
	// fetchMark is maxSlot as the previous commit-wait scan found it: an
	// entry at or below it that is still uncommitted has been so for a
	// whole scan period (commitfetch.go).
	fetchMark uint64

	// Log-lifecycle state (checkpointing / garbage collection; see
	// checkpoint.go). execMark is the contiguously finally-executed prefix:
	// slots 1..execMark all have status Executed locally. execDigest chains
	// the committed batch digests of that prefix in slot order — the
	// deterministic per-space digest CHECKPOINT votes agree on (the
	// committed content of every slot is agreed, so equal marks imply equal
	// digests at correct replicas). lowWater is the latest *stable* mark
	// (2f+1 replicas vouched they executed through it); truncated is how far
	// entries have actually been freed locally (truncated ≤ lowWater and
	// ≤ execMark — a replica never frees state it has not executed).
	execMark   uint64
	execDigest types.Digest
	lowWater   uint64
	truncated  uint64
}

func newSpace() *space {
	return &space{
		entries: make(map[uint64]*entry),
		pending: make(map[uint64]*SpecOrder),
	}
}

// extendHash chains a new instance into the space digest: the hash of the
// digest so far ‖ space (4 bytes) ‖ slot (8 bytes, both big-endian) ‖ d,
// hashed in one call over a fixed array, which allocates nothing.
func (s *space) extendHash(inst types.InstanceID, d types.Digest) {
	var buf [32 + 4 + 8 + 32]byte
	copy(buf[:32], s.logHash[:])
	binary.BigEndian.PutUint32(buf[32:36], uint32(inst.Space))
	binary.BigEndian.PutUint64(buf[36:44], inst.Slot)
	copy(buf[44:], d[:])
	s.logHash = sha256.Sum256(buf[:])
}

// cmdLog is a replica's full command log: one space per replica.
type cmdLog struct {
	n      int
	spaces []*space
}

func newCmdLog(n int) *cmdLog {
	l := &cmdLog{n: n, spaces: make([]*space, n)}
	for i := range l.spaces {
		l.spaces[i] = newSpace()
	}
	return l
}

func (l *cmdLog) space(r types.ReplicaID) *space { return l.spaces[r] }

// get returns the entry at inst, or nil.
func (l *cmdLog) get(inst types.InstanceID) *entry {
	return l.spaces[inst.Space].entries[inst.Slot]
}

// put inserts an entry, updating the space's high-water mark.
func (l *cmdLog) put(e *entry) {
	sp := l.spaces[e.inst.Space]
	sp.entries[e.inst.Slot] = e
	if e.inst.Slot > sp.maxSlot {
		sp.maxSlot = e.inst.Slot
	}
}

// entryCount returns the total number of retained log entries across all
// spaces (inspection/soak-test helper).
func (l *cmdLog) entryCount() int {
	n := 0
	for _, sp := range l.spaces {
		n += len(sp.entries)
	}
	return n
}

// depIndex answers "which instances interfere with this command?" in O(1)
// per instance space: it tracks, per key and per space, the latest instance
// of each operation class. This is transitively complete: commands on the
// same key in the same space form dependency chains, so the latest
// interfering instance per space transitively covers all earlier ones (the
// EPaxos optimization, applied per operation class because GETs do not
// interfere with GETs nor INCRs with INCRs).
//
// A key's state is one flat slice with an element per instance space that
// has touched it — a single allocation for a key only one leader orders,
// which is every key of a partitioned workload.
type depIndex struct {
	byKey map[string][]spaceLatest
}

// spaceLatest tracks, for one key, the latest instance of each operation
// class in one instance space.
type spaceLatest struct {
	space          types.ReplicaID
	get, put, incr latestRef
}

// latestRef names an instance by its slot (the space is the enclosing
// spaceLatest's); slot 0 — slots start at 1 — means no instance.
type latestRef struct {
	slot uint64
	seq  types.SeqNumber
}

func newDepIndex() *depIndex {
	return &depIndex{byKey: make(map[string][]spaceLatest)}
}

// prune invalidates every latest-instance reference into `space` at slots
// ≤ limit. Safe only for slots this replica has finally executed: its own
// future dependency collection no longer needs them (interfering commands
// were already ordered after them locally), and other replicas contribute
// their own views through the per-replica dependency union, so no ordering
// information is lost cluster-wide.
func (d *depIndex) prune(space types.ReplicaID, limit uint64) {
	for key, spaces := range d.byKey {
		for i := range spaces {
			sl := &spaces[i]
			if sl.space != space {
				continue
			}
			for _, ref := range []*latestRef{&sl.get, &sl.put, &sl.incr} {
				if ref.slot <= limit {
					*ref = latestRef{}
				}
			}
			if sl.get.slot == 0 && sl.put.slot == 0 && sl.incr.slot == 0 {
				spaces[i] = spaces[len(spaces)-1]
				spaces = spaces[:len(spaces)-1]
				if len(spaces) == 0 {
					delete(d.byKey, key)
				} else {
					d.byKey[key] = spaces
				}
			}
			break
		}
	}
}

// size returns the number of live latest-instance references (soak-test
// observable).
func (d *depIndex) size() int {
	n := 0
	for _, spaces := range d.byKey {
		for _, sl := range spaces {
			for _, ref := range [...]latestRef{sl.get, sl.put, sl.incr} {
				if ref.slot != 0 {
					n++
				}
			}
		}
	}
	return n
}

// collect returns the dependency set for cmd (excluding `exclude`) and the
// largest sequence number among the dependencies.
func (d *depIndex) collect(cmd types.Command, exclude types.InstanceID) (types.InstanceSet, types.SeqNumber) {
	if cmd.Op == types.OpNoop {
		return nil, 0
	}
	// At most three references per space; the buffer covers n = 4 without
	// touching the heap, and an empty result allocates nothing at all.
	var buf [12]types.InstanceID
	ids := buf[:0]
	var maxSeq types.SeqNumber
	for _, sl := range d.byKey[cmd.Key] {
		for _, ref := range sl.interfering(cmd.Op) {
			inst := types.InstanceID{Space: sl.space, Slot: ref.slot}
			if ref.slot == 0 || inst == exclude {
				continue
			}
			ids = append(ids, inst)
			if ref.seq > maxSeq {
				maxSeq = ref.seq
			}
		}
	}
	return types.NewInstanceSet(ids...), maxSeq
}

// interfering returns the class slots whose latest instance interferes with
// an operation of class op (unused positions are empty references).
func (sl *spaceLatest) interfering(op types.Op) [3]latestRef {
	switch op {
	case types.OpGet:
		return [3]latestRef{sl.put, sl.incr}
	case types.OpPut:
		return [3]latestRef{sl.get, sl.put, sl.incr}
	case types.OpIncr:
		return [3]latestRef{sl.get, sl.put}
	default:
		return [3]latestRef{}
	}
}

// update records an instance as the latest of its class for its key and
// space. Seq-only updates (commit raising the sequence number) pass the
// same instance again with the new seq.
func (d *depIndex) update(inst types.InstanceID, cmd types.Command, seq types.SeqNumber) {
	if cmd.Op != types.OpGet && cmd.Op != types.OpPut && cmd.Op != types.OpIncr {
		return
	}
	spaces := d.byKey[cmd.Key]
	i := 0
	for i < len(spaces) && spaces[i].space != inst.Space {
		i++
	}
	if i == len(spaces) {
		spaces = append(spaces, spaceLatest{space: inst.Space})
		d.byKey[cmd.Key] = spaces
	}
	sl := &spaces[i]
	var ref *latestRef
	switch cmd.Op {
	case types.OpGet:
		ref = &sl.get
	case types.OpPut:
		ref = &sl.put
	default:
		ref = &sl.incr
	}
	// Later slots supersede; same slot updates seq in place.
	if inst.Slot > ref.slot {
		*ref = latestRef{slot: inst.Slot, seq: seq}
	} else if inst.Slot == ref.slot && seq > ref.seq {
		ref.seq = seq
	}
}
