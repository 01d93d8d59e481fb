package transport

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// TestSendAllSurvivesPeerThatNeverReads: a peer that accepts connections and
// never reads them (Byzantine, or merely wedged) must cost the sender's loop
// a bounded wait and that peer's messages, nothing more. Every SendAll
// returns within the frame's write deadline (plus slack), the stalled write
// surfaces as a timeout and drops the connection, the peer is then skipped —
// not re-dialed and re-stalled — until its back-off period ends, and the
// healthy peer listed after the stalled one receives every frame.
func TestSendAllSurvivesPeerThatNeverReads(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		accepted []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, c) // held open, never read
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range accepted {
			c.Close()
		}
	}()

	var received atomic.Int32
	healthy, err := NewTCPPeer(types.ReplicaNode(2), "127.0.0.1:0", nil, func(types.NodeID, codec.Message) {
		received.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	stalled, good := types.ReplicaNode(1), types.ReplicaNode(2)
	send, err := NewTCPPeer(types.ReplicaNode(0), "127.0.0.1:0",
		map[types.NodeID]string{stalled: ln.Addr().String(), good: healthy.Addr()},
		func(types.NodeID, codec.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	// 1 MiB frames fill the stalled socket's buffers within a few sends.
	msg := &blobMsg{B: make([]byte, largeFrame)}
	bound := writeDeadline(largeFrame+64) + 2*time.Second
	sent, timedOut := 0, false
	for !timedOut && sent < 256 {
		start := time.Now()
		err := send.SendAll(types.ReplicaNode(0), []types.NodeID{stalled, good}, msg)
		sent++
		if took := time.Since(start); took > bound {
			t.Fatalf("SendAll %d blocked for %v, bound %v", sent, took, bound)
		}
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("SendAll %d: %v, want a write timeout", sent, err)
			}
			timedOut = true
		}
	}
	if !timedOut {
		t.Fatalf("%d MiB written to a peer that never reads without one write timing out", sent)
	}
	// The connection was dropped and the peer is backed off: sends skip it at
	// once instead of dialing a fresh socket to fill and stall on again.
	for i := 0; i < 3; i++ {
		start := time.Now()
		err := send.SendAll(types.ReplicaNode(0), []types.NodeID{stalled, good}, msg)
		sent++
		if !errors.Is(err, ErrPeerBackoff) {
			t.Fatalf("send during back-off: %v, want ErrPeerBackoff", err)
		}
		if took := time.Since(start); took > writeTimeout/2 {
			t.Fatalf("send during back-off took %v: the stalled peer was not skipped", took)
		}
	}
	// Once the period is over the peer is dialed afresh and the send goes
	// through (into the new socket's empty buffer).
	send.mu.Lock()
	send.backoff[stalled] = peerPause{until: time.Now().Add(-time.Millisecond), step: peerBackoff}
	send.mu.Unlock()
	if err := send.SendAll(types.ReplicaNode(0), []types.NodeID{stalled, good}, &blobMsg{B: []byte("after")}); err != nil {
		t.Fatalf("send after the back-off: %v", err)
	}
	sent++
	waitFor(t, func() bool { return int(received.Load()) == sent })
}

// TestWriteDeadlineGrowsWithFrame: the deadline is writeTimeout for a small
// frame and leaves a maxFrame-sized one its length at minWriteRate, so a slow
// link is not mistaken for a peer that stopped reading.
func TestWriteDeadlineGrowsWithFrame(t *testing.T) {
	if d := writeDeadline(512); d < writeTimeout || d > writeTimeout+time.Millisecond {
		t.Fatalf("deadline for a 512-byte frame = %v, want ≈ %v", d, writeTimeout)
	}
	if d, want := writeDeadline(maxFrame), writeTimeout+maxFrame/minWriteRate*time.Second; d != want {
		t.Fatalf("deadline for a maxFrame frame = %v, want %v", d, want)
	}
}

// TestRefusedPeerIsNotRedialledOnEverySend: a replica whose address refuses
// connections (it is down) is dialed by its peer replicas and by clients a
// handful of times, not once per message. It is reachable again from a
// replica as soon as it connects itself — a restarted replica dials out first
// — without waiting the pause out; a client, which nobody dials, dials afresh
// once its pause has run out.
func TestRefusedPeerIsNotRedialledOnEverySend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody listens here now

	down := types.ReplicaNode(1)
	send, err := NewTCPPeer(types.ReplicaNode(0), "127.0.0.1:0",
		map[types.NodeID]string{down: addr}, func(types.NodeID, codec.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	msg := &blobMsg{B: []byte("x")}
	// dials sends 1000 messages from p to the closed address and counts the
	// sends that dialled rather than being skipped.
	dials := func(p *TCPPeer) int {
		n := 0
		for i := 0; i < 1000; i++ {
			err := p.Send(p.self, down, msg)
			if err == nil {
				t.Fatalf("%s: send %d to a closed address succeeded", p.self, i)
			}
			if !errors.Is(err, ErrPeerBackoff) {
				n++
			}
		}
		return n
	}
	if n := dials(send); n == 0 || n > 10 {
		t.Fatalf("1000 replica sends to an address nobody listens on made %d dial attempts, want 1..10", n)
	}
	client, err := NewTCPPeer(types.ClientNode(0), "127.0.0.1:0",
		map[types.NodeID]string{down: addr}, func(types.NodeID, codec.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n := dials(client); n == 0 || n > 10 {
		t.Fatalf("1000 client sends to an address nobody listens on made %d dial attempts, want 1..10", n)
	}
	// Nothing but time ends a client's pause; once it has, the next send dials.
	client.mu.Lock()
	client.backoff[down] = peerPause{until: time.Now().Add(-time.Millisecond), step: peerBackoff}
	client.mu.Unlock()
	if err := client.Send(client.self, down, msg); err == nil || errors.Is(err, ErrPeerBackoff) {
		t.Fatalf("client send after its pause ran out: %v, want a dial error", err)
	}
	client.mu.Lock()
	again := client.backoff[down]
	client.mu.Unlock()
	if again.step != peerBackoff || !time.Now().Before(again.until) {
		t.Fatalf("pause after a further refused dial: %+v, want a new %v pause", again, peerBackoff)
	}

	// However long the pause has grown, the peer's own connection ends it.
	send.mu.Lock()
	send.backoff[down] = peerPause{until: time.Now().Add(peerBackoff), step: peerBackoff}
	send.mu.Unlock()
	var received atomic.Int32
	back, err := NewTCPPeer(down, addr, map[types.NodeID]string{types.ReplicaNode(0): send.Addr()},
		func(types.NodeID, codec.Message) { received.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if err := back.Connect(types.ReplicaNode(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		send.mu.Lock()
		defer send.mu.Unlock()
		_, routed := send.conns[down]
		_, paused := send.backoff[down]
		return routed && !paused
	})
	if err := send.Send(types.ReplicaNode(0), down, msg); err != nil {
		t.Fatalf("send to the peer that has just connected: %v", err)
	}
	waitFor(t, func() bool { return received.Load() == 1 })
}
