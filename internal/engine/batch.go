package engine

import (
	"crypto/sha256"
	"time"

	"ezbft/internal/proc"
	"ezbft/internal/types"
)

// BatchDigest computes the digest d an ordering frame carries for a batch
// of per-command digests: the single command's digest for a batch of one
// (exactly each protocol's unbatched d = H(m)), or the hash of the
// concatenated per-command digests for larger batches, so one ordering
// signature binds every command and its position.
func BatchDigest(cmdDigests []types.Digest) types.Digest {
	switch len(cmdDigests) {
	case 0:
		return types.Digest{} // a no-op
	case 1:
		return cmdDigests[0]
	}
	h := sha256.New()
	for i := range cmdDigests {
		h.Write(cmdDigests[i][:])
	}
	var d types.Digest
	copy(d[:], h.Sum(nil))
	return d
}

// BatchHost arms the one-shot timers a Batcher needs, mapping them onto
// the owning process's timer namespace. Every replica in this repository
// already multiplexes function-bound timers over proc.TimerID; these two
// methods expose that machinery.
type BatchHost interface {
	// AfterTimer arms a one-shot timer that runs fn on expiry and returns
	// its id.
	AfterTimer(ctx proc.Context, d time.Duration, fn func(ctx proc.Context)) proc.TimerID
	// DisarmTimer cancels a timer armed with AfterTimer before it fires.
	DisarmTimer(ctx proc.Context, id proc.TimerID)
}

// Batcher accumulates verified client requests at an ordering replica and
// hands them to the flush callback as one batch: when the batch fills,
// when the delay since the first queued request expires, or on demand
// (Flush). It is the leader-side half of request batching, shared by every
// protocol engine; what a "batch" becomes on the wire (one SPECORDER, one
// PRE-PREPARE, one ORDERREQ, one PROPOSE) is the protocol's business.
//
// The batcher lives inside a single-threaded process and must only be
// touched from the owning process's handlers.
type Batcher[K comparable, T any] struct {
	size  int
	delay time.Duration
	host  BatchHost
	flush func(ctx proc.Context, batch []T)

	items  []T
	queued map[K]bool
	armed  bool
	timer  proc.TimerID
	// gen invalidates timers that outlive their batch (Drop has no context
	// to disarm with): a fire whose generation is stale is a no-op.
	gen uint64

	stats BatcherStats
}

// BatcherStats describes the batch sizes a batcher actually produced.
type BatcherStats struct {
	// Flushes counts batches handed to the flush callback.
	Flushes uint64
	// Items counts items across all flushes (Items/Flushes = mean batch).
	Items uint64
	// MaxBatch is the largest single flush.
	MaxBatch int
}

// Stats returns the batch sizes produced so far.
func (b *Batcher[K, T]) Stats() BatcherStats { return b.stats }

// NewBatcher builds a batcher flushing at `size` items or after `delay`,
// whichever comes first. Size <= 1 disables accumulation (Enabled reports
// false and Add flushes immediately), so callers need no special casing
// for the unbatched configuration.
func NewBatcher[K comparable, T any](size int, delay time.Duration, host BatchHost, flush func(ctx proc.Context, batch []T)) *Batcher[K, T] {
	return &Batcher[K, T]{
		size:   size,
		delay:  delay,
		host:   host,
		flush:  flush,
		queued: make(map[K]bool),
	}
}

// Enabled reports whether batching is on (size > 1).
func (b *Batcher[K, T]) Enabled() bool { return b.size > 1 }

// Queued reports whether an item with this key is waiting in the current
// batch (the dedup check for retransmitted requests).
func (b *Batcher[K, T]) Queued(key K) bool { return b.queued[key] }

// Add queues one item. A full batch flushes immediately; otherwise the
// delay timer (armed when the first item arrives) bounds how long the
// batch waits for company. With batching disabled the item flushes alone,
// reproducing the unbatched one-instance-per-request flow exactly.
func (b *Batcher[K, T]) Add(ctx proc.Context, key K, item T) {
	b.items = append(b.items, item)
	b.queued[key] = true
	if !b.Enabled() || len(b.items) >= b.size {
		b.Flush(ctx)
		return
	}
	if !b.armed {
		b.armed = true
		gen := b.gen
		b.timer = b.host.AfterTimer(ctx, b.delay, func(ctx proc.Context) {
			if b.gen != gen {
				return // the batch this timer was armed for is gone
			}
			b.armed = false
			b.Flush(ctx)
		})
	}
}

// Flush hands everything queued to the flush callback now (no-op when
// empty). Flushing early — a full batch, or a RESENDREQ that needs the
// ordering frame out promptly — disarms the delay timer so it cannot cut
// the next batch short.
func (b *Batcher[K, T]) Flush(ctx proc.Context) {
	if len(b.items) == 0 {
		return
	}
	if b.armed {
		b.armed = false
		b.gen++
		b.host.DisarmTimer(ctx, b.timer)
	}
	batch := b.items
	b.items = nil
	clear(b.queued)
	b.stats.Flushes++
	b.stats.Items += uint64(len(batch))
	if len(batch) > b.stats.MaxBatch {
		b.stats.MaxBatch = len(batch)
	}
	b.flush(ctx, batch)
}

// Drop discards everything queued without flushing — for a leader that
// lost its ordering rights while the batch accumulated — and returns the
// dropped items so the caller can account for them. Drop is called from
// handlers that may not have a live context, so an armed delay timer
// cannot be disarmed; it is invalidated by generation instead, so it can
// neither flush nor cut short a later batch.
func (b *Batcher[K, T]) Drop() []T {
	if b.armed {
		b.armed = false
		b.gen++
	}
	dropped := b.items
	b.items = nil
	clear(b.queued)
	return dropped
}
