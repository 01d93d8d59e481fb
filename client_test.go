package ezbft

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ezbft/internal/proc"
)

// allProtocols enumerates every registered protocol for the client
// semantics tests; the context and close behaviour is substrate-level and
// must hold under each engine.
var allProtocols = []Protocol{EZBFT, PBFT, Zyzzyva, FaB}

// TestExecuteContextDeadline: Execute honors a context deadline while the
// command is still in flight (the mesh delay keeps the protocol from
// committing before the deadline). The command itself cannot be withdrawn,
// so the cluster stays healthy afterwards.
func TestExecuteContextDeadline(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(string(proto), func(t *testing.T) {
			cluster, err := NewLiveCluster(LiveConfig{Protocol: proto, Delay: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			client, err := cluster.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(t.Context(), 5*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = client.Execute(ctx, Put("k", []byte("v")))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("deadline ignored for %v", elapsed)
			}
			// The abandoned command still commits; the client remains usable.
			if _, err := client.Execute(t.Context(), Put("k2", []byte("v2"))); err != nil {
				t.Fatalf("execute after deadline: %v", err)
			}
		})
	}
}

// TestSubmitFullCallQueueHonorsDeadline: with the client's process loop
// wedged and its call queue full, Submit gives up at the context's deadline
// with the context's error instead of blocking.
func TestSubmitFullCallQueueHonorsDeadline(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	release, blocked := make(chan struct{}), make(chan struct{})
	defer close(release)
	if err := client.node.Inject(func(proc.Context) { close(blocked); <-release }); err != nil {
		t.Fatal(err)
	}
	<-blocked
	for filled := 0; ; filled++ {
		queued, err := client.node.TryInject(func(proc.Context) {})
		if err != nil {
			t.Fatal(err)
		}
		if !queued {
			t.Logf("call queue full after %d calls", filled)
			break
		}
	}
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.Submit(ctx, Put("k", []byte("v"))); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("Submit returned after %v, want about its 50ms deadline", elapsed)
	}
}

// TestExecuteContextCancel: cancellation mid-command unblocks Execute with
// context.Canceled.
func TestExecuteContextCancel(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{Delay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(t.Context())
	errc := make(chan error, 1)
	go func() {
		_, err := client.Execute(ctx, Put("k", []byte("v")))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the command get in flight
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not observe cancellation")
	}
}

// TestSubmitPipelinedInOrder: many in-flight commands from one client
// resolve in submission order. Interleaved GETs observe exactly the value
// of the preceding PUT, so per-client program order is the execution
// order under every protocol — also on a delayed mesh, whose links must
// deliver one sender's messages in the order they were sent.
func TestSubmitPipelinedInOrder(t *testing.T) {
	const rounds = 8
	for _, proto := range allProtocols {
		t.Run(string(proto), func(t *testing.T) {
			for _, delay := range []time.Duration{0, 2 * time.Millisecond} {
				t.Run("delay="+delay.String(), func(t *testing.T) {
					cluster, err := NewLiveCluster(LiveConfig{Protocol: proto, Delay: delay})
					if err != nil {
						t.Fatal(err)
					}
					defer cluster.Close()
					client, err := cluster.NewClient(0)
					if err != nil {
						t.Fatal(err)
					}

					// Submit PUT v0, GET, PUT v1, GET, ... without waiting:
					// 2*rounds commands in flight on one client.
					puts := make([]*Future, rounds)
					gets := make([]*Future, rounds)
					for i := 0; i < rounds; i++ {
						if puts[i], err = client.Submit(t.Context(), Put("k", []byte(fmt.Sprintf("v%d", i)))); err != nil {
							t.Fatal(err)
						}
						if gets[i], err = client.Submit(t.Context(), Get("k")); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < rounds; i++ {
						if res, err := puts[i].Wait(t.Context()); err != nil || !res.OK {
							t.Fatalf("put %d: %v %+v", i, err, res)
						}
						res, err := gets[i].Wait(t.Context())
						if err != nil || !res.OK {
							t.Fatalf("get %d: %v %+v", i, err, res)
						}
						if want := fmt.Sprintf("v%d", i); string(res.Value) != want {
							t.Fatalf("get %d = %q, want %q (out-of-order execution)", i, res.Value, want)
						}
					}
				})
			}
		})
	}
}

// TestCloseDuringExecute: closing the cluster mid-command fails waiting
// Executes with ErrClusterClosed instead of blocking forever — under
// every protocol.
func TestCloseDuringExecute(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(string(proto), func(t *testing.T) {
			cluster, err := NewLiveCluster(LiveConfig{Protocol: proto, Delay: 200 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			client, err := cluster.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}

			errc := make(chan error, 1)
			go func() {
				_, err := client.Execute(t.Context(), Put("k", []byte("v")))
				errc <- err
			}()
			time.Sleep(20 * time.Millisecond) // in flight, nowhere near committed
			cluster.Close()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrClusterClosed) {
					t.Fatalf("err = %v, want ErrClusterClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Execute blocked across cluster close")
			}
			// Submitting on the closed cluster also reports the closure.
			if _, err := client.Execute(t.Context(), Put("k", []byte("v"))); !errors.Is(err, ErrClusterClosed) {
				t.Fatalf("post-close err = %v, want ErrClusterClosed", err)
			}
		})
	}
}

// TestClientClose: an individual client detaches without tearing down the
// cluster — its in-flight commands fail with ErrClientClosed, other
// clients keep committing.
func TestClientClose(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{Delay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	doomed, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := cluster.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := doomed.Execute(t.Context(), Put("k", []byte("v")))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := doomed.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute blocked across client close")
	}
	if _, err := doomed.Execute(t.Context(), Put("k", []byte("v"))); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close err = %v, want ErrClientClosed", err)
	}
	// The cluster and its other clients are unaffected.
	if _, err := survivor.Execute(t.Context(), Put("still", []byte("alive"))); err != nil {
		t.Fatalf("survivor: %v", err)
	}
}

// TestMaxClients: the client identity space is configurable and exhausting
// it reports the named error.
func TestMaxClients(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{MaxClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < 2; i++ {
		if _, err := cluster.NewClient(0); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	_, err = cluster.NewClient(0)
	if !errors.Is(err, ErrTooManyClients) {
		t.Fatalf("err = %v, want ErrTooManyClients", err)
	}
}

// TestStatsConcurrentWithSubmits: Stats snapshots on the process loop, so
// reading counters while commands are in flight is race-free (the CI race
// job exercises this) and still works after the client closes.
func TestStatsConcurrentWithSubmits(t *testing.T) {
	cluster, err := NewLiveCluster(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				client.Stats()
			}
		}
	}()
	futures := make([]*Future, 32)
	for i := range futures {
		if futures[i], err = client.Submit(t.Context(), Incr("n")); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range futures {
		if _, err := f.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if st := client.Stats(); st.Completed < 32 {
		t.Fatalf("completed %d, want >= 32", st.Completed)
	}
	client.Close()
	if st := client.Stats(); st.Completed < 32 {
		t.Fatalf("post-close stats lost: %+v", st)
	}
}

// TestPipelinedBeatsBlocking is the open-loop payoff check: one client
// with 8 commands in flight moves a fixed workload faster than the
// blocking closed-loop client on the same live deployment (the mesh delay
// stands in for a network round trip). The pipelined run is the best of
// three, so one host stall in it cannot decide the comparison.
func TestPipelinedBeatsBlocking(t *testing.T) {
	const (
		commands = 24
		window   = 8
		delay    = 3 * time.Millisecond
	)
	cluster, err := NewLiveCluster(LiveConfig{Delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	blockingClient, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < commands; i++ {
		if _, err := blockingClient.Execute(t.Context(), Put(fmt.Sprintf("b%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	blocking := time.Since(start)

	pipelinedClient, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	pipelined := time.Duration(0)
	for run := 0; run < 3; run++ {
		start = time.Now()
		pending := make([]*Future, 0, window)
		for i := 0; i < commands; i++ {
			f, err := pipelinedClient.Submit(t.Context(), Put(fmt.Sprintf("p%d-%d", run, i), []byte("v")))
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, f)
			if len(pending) == window {
				if _, err := pending[0].Wait(t.Context()); err != nil {
					t.Fatal(err)
				}
				pending = pending[1:]
			}
		}
		for _, f := range pending {
			if _, err := f.Wait(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start); run == 0 || d < pipelined {
			pipelined = d
		}
	}

	t.Logf("blocking %v, pipelined(%d) %v (%.1fx)", blocking, window, pipelined,
		float64(blocking)/float64(pipelined))
	if pipelined >= blocking {
		t.Fatalf("pipelined client (%v) not faster than blocking client (%v)", pipelined, blocking)
	}
}
