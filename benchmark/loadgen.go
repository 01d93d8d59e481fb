package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ezbft"
)

// cmdGen produces one client's command stream from the workload seed. Keys
// walk the client's ring with a seeded start and odd stride, so a key
// recurs only every keyRingSize commands — far more than a client ever has
// in flight — and the last value written to a key is unambiguous whatever
// order the protocol gives one client's pipelined commands.
type cmdGen struct {
	client   int
	rng      *rand.Rand
	keys     []string
	start    uint64
	stride   uint64
	hotShare float64
	n        uint64 // commands generated so far
	// lastWrite[k] is 1 + the index of the last command that wrote ring
	// key k (0 = never written).
	lastWrite []uint64
}

func newCmdGen(seed int64, client int, hotShare float64) *cmdGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	g := &cmdGen{
		client: client, rng: rng, hotShare: hotShare,
		keys:      make([]string, keyRingSize),
		start:     rng.Uint64(),
		stride:    rng.Uint64() | 1,
		lastWrite: make([]uint64, keyRingSize),
	}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("k%d-%d", client, i)
	}
	return g
}

// value is the 16 bytes command i of this client writes: unique per
// (client, i), so a read-back identifies the write it returns.
func (g *cmdGen) value(i uint64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v, uint64(g.client))
	binary.BigEndian.PutUint64(v[8:], i)
	return v
}

func (g *cmdGen) next() ezbft.Command {
	i := g.n
	g.n++
	if g.hotShare > 0 && g.rng.Float64() < g.hotShare {
		return ezbft.Put(hotKey, g.value(i))
	}
	k := (g.start + i*g.stride) % keyRingSize
	g.lastWrite[k] = i + 1
	return ezbft.Put(g.keys[k], g.value(i))
}

// runLoad drives every client of the deployment until the plan's end, then
// waits for the commands still in flight (each bounded by its own
// deadline, all by ctx). It returns every sample, warm-up included.
func runLoad(ctx context.Context, sp spec, clients []loadClient, gens []*cmdGen, begin, t0, end time.Time) []sample {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []sample
	)
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perClient := sp.rate / float64(len(clients))
			// Clients are offset by an equal share of the period so the
			// cluster sees an evenly spaced stream.
			phase := time.Duration(float64(c) / sp.rate * float64(time.Second))
			out := openLoop(ctx, cl, gens[c], perClient, begin.Add(phase), t0, end)
			mu.Lock()
			all = append(all, out...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// inflight is one submitted command awaiting its commit.
type inflight struct {
	p        pending
	due      time.Time // when the schedule wanted the command submitted
	issued   time.Time // due, or when the sleep until due returned
	called   time.Time // Submit called
	accepted time.Time // Submit returned
}

// settle waits for one in-flight command and turns it into a sample. A
// command that does not commit within requestBudget of its due time, or by
// ctx, is a failure.
func settle(ctx context.Context, f inflight, t0 time.Time) sample {
	wctx, cancel := context.WithDeadline(ctx, f.due.Add(requestBudget))
	_, err := f.p.Wait(wctx)
	cancel()
	if err != nil {
		// A failure has no commit time; it belongs to the window it was
		// due in, so the requests due at the end of a run still count.
		return sample{at: f.due.Sub(t0), submit: f.accepted.Sub(f.called)}
	}
	s := sample{submit: f.accepted.Sub(f.called), ok: true, fast: f.p.FastPath()}
	s.latency = openLoopLatency(f.p.Latency(), 0, f.accepted.Sub(f.issued))
	s.late = max(f.accepted.Sub(f.due), 0)
	// The commit time is taken from the command, not from when this
	// goroutine got round to it: waits are served oldest first, and an
	// older command still in flight must not shift a newer one's window.
	s.at = f.accepted.Add(f.p.Latency()).Sub(t0)
	return s
}

// submit sends the generator's next command, due at due and issued at
// issued.
func submit(ctx context.Context, cl loadClient, gen *cmdGen, due, issued time.Time) (inflight, error) {
	sctx, cancel := context.WithDeadline(ctx, due.Add(requestBudget))
	defer cancel()
	f := inflight{due: due, issued: issued, called: time.Now()}
	p, err := cl.Submit(sctx, gen.next())
	f.p, f.accepted = p, time.Now()
	return f, err
}

// openLoop submits command i at first + i/rate whatever the cluster does,
// and hands each to a waiter so a slow commit never delays the schedule.
func openLoop(ctx context.Context, cl loadClient, gen *cmdGen, rate float64, first, t0, end time.Time) []sample {
	// Sized past the most commands that can be in flight at once, rate ×
	// requestBudget, so the scheduler never blocks on the waiter.
	queue := make(chan inflight, int(rate*requestBudget.Seconds())+64)
	var (
		out  []sample
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		for f := range queue {
			out = append(out, settle(ctx, f, t0))
		}
	}()
	var refused []sample
	for i := 0; ; i++ {
		due := first.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(end) || ctx.Err() != nil {
			break
		}
		issued := due
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			issued = time.Now()
		}
		f, err := submit(ctx, cl, gen, due, issued)
		if err != nil {
			refused = append(refused, sample{at: due.Sub(t0)})
			continue
		}
		queue <- f
	}
	close(queue)
	<-done
	return append(out, refused...)
}
