package engine

import (
	"fmt"
	"time"

	"ezbft/internal/auth"
	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// SeqConfig configures a sequenced replica (PBFT, Zyzzyva, FaB): Zyzzyva's
// and FaB's ReplicaConfig, and all of PBFT's but its store.
type SeqConfig struct {
	Self types.ReplicaID
	N    int
	// App executes commands; Auth signs and verifies messages.
	App  types.Application
	Auth auth.Authenticator
	// Costs holds virtual processing costs for simulation.
	Costs proc.Costs
	// InitialView selects the starting primary (primary = view mod N).
	InitialView uint64
	// ForwardTimeout bounds how long a backup waits for the primary to
	// order a request it forwarded before suspecting the primary (default
	// 2 s).
	ForwardTimeout time.Duration
	// CheckpointInterval is the distance between checkpoints in sequence
	// numbers; 0 disables checkpointing, truncation and state transfer
	// (PBFT substitutes its protocol default).
	CheckpointInterval uint64
	// LogRetention keeps this many additional sequence numbers below the
	// stable checkpoint when truncating.
	LogRetention uint64
	// BatchSize is the maximum number of client requests the primary orders
	// per sequence number. 0 or 1 disables batching and reproduces the
	// protocol's one-slot-per-request flow exactly.
	BatchSize int
	// BatchDelay is how long an incomplete batch waits for more requests
	// before flushing (default DefaultBatchDelay; only used when
	// BatchSize > 1).
	BatchDelay time.Duration
	// Mute makes the replica silent (fault injection).
	Mute bool
	// Behavior, when non-nil, intercepts every message this replica sends
	// and receives (adversarial scenario harness; see Behavior).
	Behavior Behavior
}

// DefaultBatchDelay is the default wait for an incomplete primary-side
// batch; it must stay far below client retry timeouts.
const DefaultBatchDelay = 2 * time.Millisecond

// Sequenced returns the options as a sequenced replica's configuration; a
// LatencyBound sets ForwardTimeout to four of it.
func (o ReplicaOptions) Sequenced() SeqConfig {
	c := SeqConfig{
		Self: o.Self, N: o.N, App: o.App, Auth: o.Auth, Costs: o.Costs,
		InitialView:        uint64(o.Primary),
		CheckpointInterval: o.CheckpointInterval,
		LogRetention:       o.LogRetention,
		BatchSize:          o.BatchSize,
		BatchDelay:         o.BatchDelay,
		Mute:               o.Mute,
		Behavior:           o.Behavior,
	}
	if o.LatencyBound > 0 {
		c.ForwardTimeout = 4 * o.LatencyBound
	}
	return c
}

// validate checks the shared configuration and fills in its defaults;
// maxBatch is the most requests the protocol's ordering frame decodes.
func (c *SeqConfig) validate(name string, maxBatch int) error {
	if c.N < 4 || (c.N-1)%3 != 0 {
		return fmt.Errorf("%s: cluster size must be 3f+1, got %d", name, c.N)
	}
	if c.App == nil || c.Auth == nil {
		return fmt.Errorf("%s: app and auth are required", name)
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 2 * time.Second
	}
	if c.BatchSize > maxBatch-1 {
		return fmt.Errorf("%s: batch size %d exceeds maximum %d", name, c.BatchSize, maxBatch-1)
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = DefaultBatchDelay
	}
	return nil
}

// ReqKey names one client request: the per-request tables are keyed by it.
type ReqKey struct {
	Client types.ClientID
	TS     uint64
}

// KeyOf returns the request key of a command.
func KeyOf(cmd *types.Command) ReqKey { return ReqKey{cmd.Client, cmd.Timestamp} }

// ClientRequest is the surface a protocol's REQUEST message (pointer P to
// value R) gives the Sequencer and the QuorumClient.
type ClientRequest[R any] interface {
	*R
	codec.Message
	SignedMessage
	// Command returns the request's command, in place.
	Command() *types.Command
	// Signature returns the client's signature; SetSignature replaces it.
	Signature() []byte
	SetSignature(sig []byte)
	// Clone returns a copy safe to take while other nodes' verifier pools
	// may still be marking the shared original.
	Clone() R
}

// DecodeBatch reads a count-prefixed run of between 1 and limit elements,
// decoding each in place with dec: the batch tail of an ordering frame, a
// view-change entry or a WAL record.
func DecodeBatch[T any](r *codec.Reader, limit uint64, dec func(*codec.Reader, *T) error) ([]T, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > limit {
		return nil, codec.ErrOverflow
	}
	out := make([]T, n)
	for i := range out {
		if err := dec(r, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MarshalBatch writes what DecodeBatch reads for a non-empty batch, and
// nothing for an empty one: the count, then each element encoded by enc.
func MarshalBatch[T any](w *codec.Writer, batch []T, enc func(*T, *codec.Writer)) {
	if len(batch) == 0 {
		return
	}
	w.Uvarint(uint64(len(batch)))
	for i := range batch {
		enc(&batch[i], w)
	}
}

// Batch is the ordered payload of one sequence number: what the Sequencer
// executes, answers, truncates and reports in a VIEW-CHANGE. Every
// protocol's slot type embeds it.
type Batch struct {
	Seq      uint64
	View     uint64          // the view the batch was accepted in
	Cmds     []types.Command // the ordered batch, in batch order (empty: a no-op)
	Digests  []types.Digest  // per-command digests
	Digest   types.Digest    // batch digest (the command digest when unbatched)
	Results  []types.Result
	Executed bool
	// Accepted is set once the batch is known (from an ordering frame, a
	// NEW-VIEW, a transfer or a log); Frame is the primary-signed ordering
	// frame it came from, nil where there was none.
	Accepted bool
	Frame    codec.Message
}

// Ordered implements Slot.
func (b *Batch) Ordered() *Batch { return b }

// Slot is a protocol's per-sequence-number log entry, embedding a Batch.
type Slot interface{ Ordered() *Batch }

// SeqHost is what a protocol supplies to its Sequencer: its ordering
// frame and its reply.
type SeqHost[R any, Y any, S any] interface {
	// Order wraps a flushed batch (cloned, with per-command digests and the
	// batch digest) in the protocol's signed ordering frame at seq and
	// proposes it. The admission and signing charges are already made.
	Order(ctx proc.Context, seq uint64, digest types.Digest, digests []types.Digest, first R, rest []R)
	// Reply builds and signs the reply to command i of an executing slot
	// (its result already in Results[i]).
	Reply(ctx proc.Context, slot S, i int) Y
}

// ReplyRefresher is implemented by a SeqHost whose cached replies can go
// stale (a Zyzzyva SPECRESPONSE matches only within its view). It decides,
// for a retransmitted request, which reply to resend (cached and ok are the
// reply-cache lookup), charging the signature it resends.
type ReplyRefresher[Y any] interface {
	RefreshReply(ctx proc.Context, key ReqKey, cached Y, ok bool) (Y, bool)
}

// SeqStats are the counters every sequenced replica reports; each
// protocol's ReplicaStats embeds them beside its own.
type SeqStats struct {
	DroppedInvalid uint64
	ViewChanges    uint64 // views entered through a NEW-VIEW

	// Log-lifecycle observables (checkpointing / GC).
	Checkpoints      uint64 // stable checkpoints established
	TruncatedEntries uint64 // slots freed by truncation
	LowWaterMark     uint64 // latest stable checkpoint sequence number

	// State-transfer observables (Lifecycle).
	CatchupsServed    uint64 // CATCHUP-RESPs served to lagging peers
	CatchupsInstalled uint64 // transfers verified and installed locally
	CatchupMismatches uint64 // responders outvoted by an installed f+1 agreement
}

// Sequencer is the replica core PBFT, Zyzzyva and FaB share: everything a
// single-primary protocol does around its phase handlers. It embeds the
// replica's Shell (timers, gated sends, write-ahead log) and owns the
// configuration defaults; request admission (client signature,
// reply-cache resend, RequestWindow floor, forwarding to the primary under
// a suspicion timer, duplicate suppression, the Batcher); the flush that turns a batch into
// the protocol's ordering frame; the check of an inbound ordering frame;
// the per-request tables and their release through the RequestWindow; the
// log of slots with in-order execution and one reply per command, and its
// truncation; the view and the view change (viewchange.go); and the
// replica's Lifecycle. R is the protocol's REQUEST value and P its pointer,
// Y its reply, S its slot. A Sequencer belongs to one replica and is
// touched only from its loop.
type Sequencer[R any, P ClientRequest[R], Y codec.Message, S Slot] struct {
	Shell
	cfg     SeqConfig
	host    SeqHost[R, Y, S]
	vhost   ViewHost[S]
	vtags   ViewTags
	refresh ReplyRefresher[Y] // nil unless cached replies can go stale
	life    *Lifecycle

	// Log holds the retained slots by sequence number.
	Log map[uint64]S
	// NextSeq is the next sequence number this replica assigns as primary.
	NextSeq uint64
	// MaxExec is the highest contiguously executed sequence number.
	MaxExec uint64
	// InVC is set while the replica asks for a view change (to vcTarget):
	// it orders, forwards and votes for nothing then.
	InVC bool

	view      uint64
	vcTarget  uint64
	vcs       map[types.ReplicaID]*ViewChange // each replica's, for the highest view it asked for
	certs     map[uint64]ViewEntry            // the highest-view certificate held per sequence number (Hold)
	truncated uint64                          // highest sequence number freed by truncation

	byCmd     map[ReqKey]uint64 // exactly-once table: request → sequence number
	replies   map[ReqKey]Y      // reply cache
	forwarded map[ReqKey]proc.TimerID
	window    *RequestWindow
	batcher   *Batcher[ReqKey, P]

	dropped, truncatedEntries, executedCmds, viewChanges uint64
}

// NewSequencer validates cfg, filling in its defaults in place, and builds
// a replica's Sequencer and Lifecycle (interval cfg.CheckpointInterval,
// lifecycle messages under tags, view-change messages under vtags). host
// supplies the protocol's half of all three; name prefixes configuration
// errors.
func NewSequencer[R any, P ClientRequest[R], Y codec.Message, S Slot](
	name string, cfg *SeqConfig, maxBatch int, tags LogTags, vtags ViewTags, host interface {
		SeqHost[R, Y, S]
		LogHost
		ViewHost[S]
	}) (*Sequencer[R, P, Y, S], error) {
	if err := cfg.validate(name, maxBatch); err != nil {
		return nil, err
	}
	s := &Sequencer[R, P, Y, S]{
		Shell:     NewShell(cfg.Self, cfg.N, cfg.Mute, cfg.Behavior, nil),
		cfg:       *cfg,
		host:      host,
		vhost:     host,
		vtags:     vtags,
		vcs:       make(map[types.ReplicaID]*ViewChange),
		certs:     make(map[uint64]ViewEntry),
		Log:       make(map[uint64]S),
		NextSeq:   1,
		view:      cfg.InitialView,
		byCmd:     make(map[ReqKey]uint64),
		replies:   make(map[ReqKey]Y),
		forwarded: make(map[ReqKey]proc.TimerID),
	}
	s.refresh, _ = host.(ReplyRefresher[Y])
	s.window = NewRequestWindow(s.release)
	s.batcher = NewBatcher[ReqKey, P](cfg.BatchSize, cfg.BatchDelay, s, s.flush)
	s.life = NewLifecycle(LogConfig{
		Self: cfg.Self, N: cfg.N, App: cfg.App, Auth: cfg.Auth, Costs: cfg.Costs,
		Tags: tags, Interval: cfg.CheckpointInterval, RetryBase: 2 * cfg.ForwardTimeout,
	}, host)
	return s, nil
}

// Life returns the replica's log lifecycle.
func (s *Sequencer[R, P, Y, S]) Life() *Lifecycle { return s.life }

// View returns the current view.
func (s *Sequencer[R, P, Y, S]) View() uint64 { return s.view }

// Primary returns the current view's primary.
func (s *Sequencer[R, P, Y, S]) Primary() types.ReplicaID {
	return types.ReplicaID(s.view % uint64(s.cfg.N))
}

// IsPrimary reports whether this replica is the current view's primary.
func (s *Sequencer[R, P, Y, S]) IsPrimary() bool { return s.Primary() == s.cfg.Self }

// EnterView moves to a later view. Requests still queued for the deposed
// primary's next batch are the old view's business (the clients'
// retransmits re-drive them), forwarding timers start afresh, and the
// VIEW-CHANGEs for views up to this one are forgotten: nothing reads them
// again.
func (s *Sequencer[R, P, Y, S]) EnterView(view uint64) {
	s.view = view
	s.InVC = false
	s.batcher.Drop()
	for key, id := range s.forwarded {
		delete(s.forwarded, key)
		s.ForgetTimer(id)
	}
	for id, vc := range s.vcs {
		if vc.View <= view {
			delete(s.vcs, id)
		}
	}
}

// MaxExecuted returns the highest contiguously executed sequence number.
func (s *Sequencer[R, P, Y, S]) MaxExecuted() uint64 { return s.MaxExec }

// Truncated returns the highest sequence number freed by truncation.
func (s *Sequencer[R, P, Y, S]) Truncated() uint64 { return s.truncated }

// StableCheckpoint returns the latest stable checkpoint sequence number.
func (s *Sequencer[R, P, Y, S]) StableCheckpoint() uint64 { return s.life.Mark() }

// SlotCount returns the number of retained slots (soak-test observable).
func (s *Sequencer[R, P, Y, S]) SlotCount() int { return len(s.Log) }

// RequestStateCount returns the size of the larger per-request table (reply
// cache, exactly-once table): the bounded-memory observable beside
// SlotCount.
func (s *Sequencer[R, P, Y, S]) RequestStateCount() int { return max(len(s.byCmd), len(s.replies)) }

// BatcherStats returns the primary-side batch-size observables.
func (s *Sequencer[R, P, Y, S]) BatcherStats() BatcherStats { return s.batcher.Stats() }

// ExecutedCommands counts the commands executed through Execute.
func (s *Sequencer[R, P, Y, S]) ExecutedCommands() uint64 { return s.executedCmds }

// MergeStats returns own with the Sequencer's and the Lifecycle's counters
// added in.
func (s *Sequencer[R, P, Y, S]) MergeStats(own SeqStats) SeqStats {
	ls := s.life.Stats()
	own.Checkpoints, own.LowWaterMark = ls.Checkpoints, ls.LowWaterMark
	own.CatchupsServed, own.CatchupsInstalled, own.CatchupMismatches = ls.CatchupsServed, ls.CatchupsInstalled, ls.CatchupMismatches
	own.DroppedInvalid += ls.DroppedInvalid + s.dropped
	own.TruncatedEntries += s.truncatedEntries
	own.ViewChanges += s.viewChanges
	return own
}

// Route delivers the messages the engine owns — the three lifecycle
// messages and the view-change pair — and reports whether msg was one of
// them.
func (s *Sequencer[R, P, Y, S]) Route(ctx proc.Context, msg codec.Message) bool {
	switch m := msg.(type) {
	case *Checkpoint:
		s.life.HandleCheckpoint(ctx, m)
	case *CatchupReq:
		s.life.HandleCatchupReq(ctx, m)
	case *CatchupResp:
		s.life.HandleCatchupResp(ctx, m)
	case *ViewChange:
		if m.View <= s.view {
			break
		}
		if m.Replica == s.cfg.Self || !s.validViewChange(ctx, m) {
			s.dropped++
			break
		}
		s.recordViewChange(ctx, m)
	case *NewView:
		if m.View <= s.view {
			break
		}
		if !s.validNewView(ctx, m) {
			s.dropped++
			break
		}
		s.enterNewView(ctx, m)
	default:
		return false
	}
	return true
}

// --- admission ---

// Admit runs a client REQUEST through admission. The asymmetric
// client-signature check is charged per request; the per-instance
// admission overhead is charged where the sequence number is assigned
// (flush), so primary-side batching amortizes it — the same split cost
// model as ezBFT's owner-side batching. At batch size 1 both charges land
// in the same handler invocation, exactly the paper's calibrated
// per-request admission cost. An answered request gets its cached reply
// again; one below its client's window is dropped; a backup forwards the
// request to the primary and suspects it if the request is not ordered
// within ForwardTimeout (a VIEW-CHANGE for the next view); the primary
// queues it for its next batch unless it is ordered or queued already.
func (s *Sequencer[R, P, Y, S]) Admit(ctx proc.Context, m P) {
	cmd := m.Command()
	if !m.SigVerified() {
		s.cfg.Costs.ChargeVerifyClient(ctx)
		if err := VerifyBody(s.cfg.Auth, types.ClientNode(cmd.Client), m, m.Signature()); err != nil {
			s.dropped++
			return
		}
	}
	key := KeyOf(cmd)
	if y, ok := s.resend(ctx, key); ok {
		s.Send(ctx, types.ClientNode(cmd.Client), y)
		return
	}
	if s.window.Below(cmd.Client, cmd.Timestamp) {
		// Older than anything the client can still have in flight, and old
		// enough that the tables which would recognise it as executed may
		// have let it go: assigning it a sequence number (or forwarding it
		// and suspecting the primary over it) would execute it twice.
		s.dropped++
		return
	}
	if !s.IsPrimary() {
		if _, already := s.forwarded[key]; already || s.InVC {
			return
		}
		s.Send(ctx, types.ReplicaNode(s.Primary()), m)
		s.forwarded[key] = s.AfterTimer(ctx, s.cfg.ForwardTimeout, func(ctx proc.Context) {
			if _, still := s.forwarded[key]; !still {
				return
			}
			delete(s.forwarded, key)
			s.startViewChange(ctx, s.view+1)
		})
		return
	}
	if _, dup := s.byCmd[key]; dup {
		return // already assigned a sequence number
	}
	if s.batcher.Queued(key) {
		return // already waiting in the current batch
	}
	s.batcher.Add(ctx, key, m)
}

// resend returns the reply to send again for an answered request.
func (s *Sequencer[R, P, Y, S]) resend(ctx proc.Context, key ReqKey) (Y, bool) {
	y, ok := s.replies[key]
	if s.refresh != nil {
		return s.refresh.RefreshReply(ctx, key, y, ok)
	}
	if ok {
		s.cfg.Costs.ChargeSign(ctx)
	}
	return y, ok
}

// flush assigns the next sequence number to a batch of requests and hands
// it to the protocol, which proposes it in one ordering frame — one primary
// signature, one wire frame — for the whole batch. Primaryship is
// re-checked at flush time: a view change while the batch accumulated drops
// the requests (the clients' retransmits re-drive them at the new primary),
// as does a command another replica assigned in the meantime.
func (s *Sequencer[R, P, Y, S]) flush(ctx proc.Context, reqs []P) {
	if !s.IsPrimary() || s.InVC {
		return
	}
	fresh := reqs[:0]
	for _, m := range reqs {
		if _, dup := s.byCmd[KeyOf(m.Command())]; !dup {
			fresh = append(fresh, m)
		}
	}
	if len(fresh) == 0 {
		return
	}
	seq := s.NextSeq
	s.NextSeq++
	digests := make([]types.Digest, len(fresh))
	for i, m := range fresh {
		digests[i] = m.Command().Digest()
	}
	// Clone, not a plain copy: a retransmitted request is one decoded value
	// shared with every replica's verifier pool on the mesh.
	first := fresh[0].Clone()
	var rest []R
	if len(fresh) > 1 {
		rest = make([]R, len(fresh)-1)
		for i, m := range fresh[1:] {
			rest[i] = m.Clone()
		}
	}
	s.cfg.Costs.ChargeAdmitInstance(ctx)
	s.cfg.Costs.ChargeSign(ctx)
	s.host.Order(ctx, seq, BatchDigest(digests), digests, first, rest)
}

// CheckFrame validates an inbound ordering frame from primary: its
// signature and every embedded client signature (unless a transport-side
// verifier pool already checked them), and that digest — the batch digest
// the frame signs — binds exactly the embedded requests. It returns the
// per-command digests, or nil for a frame it dropped.
func (s *Sequencer[R, P, Y, S]) CheckFrame(ctx proc.Context, f Frame[P], primary types.ReplicaID, digest types.Digest) []types.Digest {
	digests := make([]types.Digest, f.BatchSize())
	verified := f.SigVerified()
	if !verified {
		// One primary-signature verification per batch; the embedded client
		// requests are MAC-checked (microseconds). Batching amortizes the
		// expensive check across the whole batch.
		s.cfg.Costs.ChargeVerify(ctx, 1)
		if err := VerifyBody(s.cfg.Auth, types.ReplicaNode(primary), f, f.Signature()); err != nil {
			s.dropped++
			return nil
		}
	}
	for i := range digests {
		req := f.ReqAt(i)
		if !verified {
			if err := VerifyBody(s.cfg.Auth, types.ClientNode(req.Command().Client), req, req.Signature()); err != nil {
				s.dropped++
				return nil
			}
		}
		digests[i] = req.Command().Digest()
	}
	if digest != BatchDigest(digests) {
		s.dropped++
		return nil
	}
	return digests
}

// --- per-request tables ---

// Record enters one ordered command in the exactly-once table under seq
// and reports its timestamp to the client window.
func (s *Sequencer[R, P, Y, S]) Record(cmd *types.Command, seq uint64) {
	s.byCmd[KeyOf(cmd)] = seq
	s.window.Seen(cmd.Client, cmd.Timestamp)
}

// Assign is Record for a command the primary just ordered: a backup that
// forwarded it stops suspecting the primary over it.
func (s *Sequencer[R, P, Y, S]) Assign(cmd *types.Command, seq uint64) {
	s.Record(cmd, seq)
	key := KeyOf(cmd)
	if id, ok := s.forwarded[key]; ok {
		delete(s.forwarded, key)
		s.ForgetTimer(id)
	}
}

// SeqOf returns the sequence number a request was ordered under.
func (s *Sequencer[R, P, Y, S]) SeqOf(key ReqKey) (uint64, bool) {
	seq, ok := s.byCmd[key]
	return seq, ok
}

// CachedReply returns the cached reply to a request.
func (s *Sequencer[R, P, Y, S]) CachedReply(key ReqKey) (Y, bool) {
	y, ok := s.replies[key]
	return y, ok
}

// CacheReply caches the reply to a request.
func (s *Sequencer[R, P, Y, S]) CacheReply(key ReqKey, y Y) { s.replies[key] = y }

// release drops one request's reply-cache and exactly-once entries; the
// window calls it once the request's slot is truncated and the request is
// ReplyRetention timestamps behind its client's highest.
func (s *Sequencer[R, P, Y, S]) release(client types.ClientID, ts uint64) {
	key := ReqKey{client, ts}
	delete(s.byCmd, key)
	delete(s.replies, key)
}

// --- execution and truncation ---

// ExecuteReady executes, in sequence order from MaxExec+1, every slot that
// is final (the protocol's rule: committed, learned) and not yet executed,
// voting a checkpoint where one falls due.
func (s *Sequencer[R, P, Y, S]) ExecuteReady(ctx proc.Context, final func(S) bool) {
	for {
		slot, ok := s.Log[s.MaxExec+1]
		if !ok || slot.Ordered().Executed || !final(slot) {
			return
		}
		s.Execute(ctx, slot)
		s.life.MaybeEmit(ctx, types.Digest{})
	}
}

// Execute applies one slot's batch atomically in batch order, answers every
// command with its own reply so each client correlates its own result, and
// advances MaxExec to the slot.
func (s *Sequencer[R, P, Y, S]) Execute(ctx proc.Context, slot S) {
	b := slot.Ordered()
	b.Results = make([]types.Result, len(b.Cmds))
	for i := range b.Cmds {
		cmd := &b.Cmds[i]
		s.cfg.Costs.ChargeExecute(ctx)
		b.Results[i] = s.cfg.App.Apply(*cmd)
		y := s.host.Reply(ctx, slot, i)
		s.replies[KeyOf(cmd)] = y
		s.Send(ctx, types.ClientNode(cmd.Client), y)
	}
	b.Executed = true
	s.MaxExec = b.Seq
	s.executedCmds += uint64(len(b.Cmds))
}

// Truncate implements LogHost: it frees the executed slots at and below a
// stable mark (keeping LogRetention extra sequence numbers, and never beyond
// this replica's own executed prefix) and hands their per-request
// bookkeeping to the client window to release.
func (s *Sequencer[R, P, Y, S]) Truncate(mark uint64) {
	if s.cfg.LogRetention >= mark {
		return
	}
	mark = min(mark-s.cfg.LogRetention, s.MaxExec)
	if mark <= s.truncated {
		return
	}
	for seq, slot := range s.Log {
		b := slot.Ordered()
		if seq > mark || !b.Executed {
			continue
		}
		for i := range b.Cmds {
			s.window.Truncated(b.Cmds[i].Client, b.Cmds[i].Timestamp)
		}
		delete(s.Log, seq)
		s.truncatedEntries++
	}
	s.truncated = mark
}

// ExecutedSuffix implements LogHost's ExecutedSuffix for a protocol whose
// transferred slots carry commands without their client signatures, in the
// current view.
func (s *Sequencer[R, P, Y, S]) ExecutedSuffix(mark uint64) []CatchupSlot {
	var out []CatchupSlot
	for seq := mark + 1; seq <= s.MaxExec; seq++ {
		slot, ok := s.Log[seq]
		if !ok || !slot.Ordered().Executed {
			break // the suffix must stay contiguous
		}
		out = append(out, CatchupSlot{Seq: seq, View: s.view, Reqs: UnsignedCmds(slot.Ordered().Cmds)})
	}
	return out
}

// Replay executes a transferred slot at MaxExec+1 into slot (empty): its
// batch, results and exactly-once entries. It advances the watermark.
func (s *Sequencer[R, P, Y, S]) Replay(ctx proc.Context, cs *CatchupSlot, slot S) {
	b := slot.Ordered()
	b.Seq, b.View, b.Accepted, b.Executed = cs.Seq, cs.View, true, true
	b.Cmds = make([]types.Command, len(cs.Reqs))
	b.Digests = make([]types.Digest, len(cs.Reqs))
	b.Results = make([]types.Result, len(cs.Reqs))
	for j := range cs.Reqs {
		b.Cmds[j] = cs.Reqs[j].Cmd
		b.Digests[j] = b.Cmds[j].Digest()
		s.cfg.Costs.ChargeExecute(ctx)
		b.Results[j] = s.cfg.App.Apply(b.Cmds[j])
		s.Record(&b.Cmds[j], cs.Seq)
	}
	b.Digest = BatchDigest(b.Digests)
	s.Log[cs.Seq] = slot
	s.MaxExec = cs.Seq
}

// DropBelow forgets every slot at or below an installed mark and makes it
// the executed watermark.
func (s *Sequencer[R, P, Y, S]) DropBelow(mark uint64) {
	s.MaxExec = mark
	s.truncated = max(s.truncated, mark)
	for seq := range s.Log {
		if seq <= mark {
			delete(s.Log, seq)
		}
	}
}
