package ezbft

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestOpenLoopRateTargeted: the open-loop driver submits at roughly the
// target rate, every submitted command resolves by return, and the cluster
// actually commits them.
func TestOpenLoopRateTargeted(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}

	// A host stall as long as the window leaves it empty; three empty
	// windows in a row are a driver that makes no progress.
	var stats OpenLoopStats
	for attempt := 0; attempt < 3 && stats.Completed == 0; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
		stats, err = client.OpenLoop(ctx, 200, func(i uint64) Command {
			return Command{Op: OpPut, Key: fmt.Sprintf("ol-%d-%d", attempt, i), Value: []byte("v")}
		}, 16)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	if stats.Submitted == 0 || stats.Completed == 0 {
		t.Fatalf("open loop made no progress: %+v", stats)
	}
	if stats.Completed+stats.Errors != stats.Submitted {
		t.Fatalf("unresolved submissions on return: %+v", stats)
	}
	// 400ms at 200/s ≈ 80 ticks; allow generous scheduling slop but catch a
	// runaway submitter.
	if stats.Submitted > 120 {
		t.Fatalf("submitted %d commands, far above the 200/s target over 400ms", stats.Submitted)
	}
	if got := client.Stats().Completed; got < stats.Completed {
		t.Fatalf("protocol client completed %d < driver's %d", got, stats.Completed)
	}
}

// TestOpenLoopBackpressure: with a window of 1 and an absurd target rate,
// the in-flight window outruns the cluster and ticks are skipped (counted
// as Throttled) instead of queueing unboundedly.
func TestOpenLoopBackpressure(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{Delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}

	// As in TestOpenLoopRateTargeted, a host stall as long as the window
	// can leave it without a tick; three such windows in a row cannot.
	var stats OpenLoopStats
	for attempt := 0; attempt < 3 && stats.Throttled == 0; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		stats, err = client.OpenLoop(ctx, 5000, func(i uint64) Command {
			return Command{Op: OpPut, Key: "hot", Value: []byte("v")}
		}, 1)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	if stats.Throttled == 0 {
		t.Fatalf("no backpressure observed at 5000/s with a window of 1: %+v", stats)
	}
	if stats.Completed+stats.Errors != stats.Submitted {
		t.Fatalf("unresolved submissions on return: %+v", stats)
	}
}

// TestOpenLoopValidation: nil generators and non-positive rates fail fast.
func TestOpenLoopValidation(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenLoop(context.Background(), 100, nil, 1); err == nil {
		t.Fatal("nil generator accepted")
	}
	gen := func(uint64) Command { return Command{Op: OpPut, Key: "k"} }
	if _, err := client.OpenLoop(context.Background(), 0, gen, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
}
