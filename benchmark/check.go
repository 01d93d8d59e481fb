package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"ezbft"
)

const (
	sampledKeys  = 16
	digestBudget = 5 * time.Second
)

// checkOutputs verifies what the cluster holds once the load has drained:
// a final write to the shared key reads back, sampledKeys ring keys read
// back the last value the load wrote them, and every live replica reports
// the same state digest.
func checkOutputs(ctx context.Context, d *deployment, gens []*cmdGen) error {
	// Every earlier command has resolved, so this write is the last to
	// the shared key in any order the protocol may have chosen.
	last := d.clients[len(d.clients)-1]
	final := []byte("final-hot-value!")
	if _, err := execute(ctx, last, ezbft.Put(hotKey, final)); err != nil {
		return fmt.Errorf("check: final write of %q: %w", hotKey, err)
	}

	type read struct {
		key  string
		want []byte
		p    pending
	}
	reads := []read{{key: hotKey, want: final}}
	// Seeded from the generators, so the sample follows from -seed alone.
	rng := rand.New(rand.NewSource(int64(gens[0].start)))
	for i := 0; i < sampledKeys; i++ {
		g := gens[i%len(gens)]
		if k, ok := g.sampleWritten(rng); ok {
			reads = append(reads, read{key: g.keys[k], want: g.value(g.lastWrite[k] - 1)})
		}
	}
	rctx, cancel := context.WithTimeout(ctx, requestBudget)
	defer cancel()
	for i := range reads {
		p, err := d.clients[i%len(d.clients)].Submit(rctx, ezbft.Get(reads[i].key))
		if err != nil {
			return fmt.Errorf("check: reading %q: %w", reads[i].key, err)
		}
		reads[i].p = p
	}
	for _, r := range reads {
		res, err := r.p.Wait(rctx)
		if err != nil {
			return fmt.Errorf("check: reading %q: %w", r.key, err)
		}
		if !bytes.Equal(res.Value, r.want) {
			return fmt.Errorf("check: %q holds %x, last value written was %x", r.key, res.Value, r.want)
		}
	}

	deadline := time.Now().Add(digestBudget)
	for {
		digests := d.digests()
		if agree(digests) {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("check: replica state digests differ after %v: %v", digestBudget, digests)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func agree(digests []string) bool {
	for _, x := range digests[1:] {
		if x != digests[0] {
			return false
		}
	}
	return len(digests) > 0
}

// sampleWritten picks a ring key this generator has written.
func (g *cmdGen) sampleWritten(rng *rand.Rand) (int, bool) {
	for try := 0; try < 64; try++ {
		if k := rng.Intn(keyRingSize); g.lastWrite[k] != 0 {
			return k, true
		}
	}
	return 0, false
}
