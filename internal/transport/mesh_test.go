package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/race"
	"ezbft/internal/types"
)

// recorder collects every delivery as (sender, sequence number) pairs; its
// record method is a mesh or pool delivery path.
type recorder struct {
	mu  sync.Mutex
	got map[types.NodeID][]uint64
	n   atomic.Int64
}

func newRecorder() *recorder { return &recorder{got: make(map[types.NodeID][]uint64)} }

func (r *recorder) record(from types.NodeID, msg codec.Message) {
	r.mu.Lock()
	r.got[from] = append(r.got[from], msg.(*echoMsg).N)
	r.mu.Unlock()
	r.n.Add(1)
}

// from returns a copy of what arrived from one sender, in arrival order.
func (r *recorder) from(id types.NodeID) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.got[id]...)
}

// recordProc is a process that hands every message to a recorder, so a
// bare-attached node's inbox order is observable.
type recordProc struct {
	id types.NodeID
	r  *recorder
}

func (p *recordProc) ID() types.NodeID  { return p.id }
func (p *recordProc) Init(proc.Context) {}
func (p *recordProc) Receive(_ proc.Context, from types.NodeID, msg codec.Message) {
	p.r.record(from, msg)
}
func (p *recordProc) OnTimer(proc.Context, proc.TimerID) {}

// attachRecorder attaches a node with the given id behind a pool whose
// deliveries go to a fresh recorder; the pool and the attachment are
// undone at cleanup.
func attachRecorder(t *testing.T, mesh *Mesh, id types.NodeID) (*LiveNode, *VerifyPool, *recorder) {
	t.Helper()
	r := newRecorder()
	node := NewLiveNode(&recordProc{id: id, r: r}, mesh, 1)
	pool := NewVerifyPool(1, nil, r.record)
	mesh.AttachPool(node, pool)
	t.Cleanup(func() {
		mesh.Detach(node)
		pool.Close()
	})
	return node, pool, r
}

// inOrder reports the first position where got is not 0, 1, ..., want-1.
func inOrder(got []uint64, want int) (int, bool) {
	if len(got) != want {
		return len(got), false
	}
	for i, n := range got {
		if n != uint64(i) {
			return i, false
		}
	}
	return 0, true
}

// TestMeshLinkFIFO: a burst on one delayed link arrives in send order.
// One timer per message used to deliver each on its own goroutine, which
// let dozens of 800 overtake each other.
func TestMeshLinkFIFO(t *testing.T) {
	const count = 800
	mesh := NewMesh(2 * time.Millisecond)
	from, to := types.ClientNode(0), types.ReplicaNode(0)
	_, _, r := attachRecorder(t, mesh, to)
	for i := 0; i < count; i++ {
		_ = mesh.Send(from, to, &echoMsg{N: uint64(i)})
	}
	waitFor(t, func() bool { return r.n.Load() == count })
	got := r.from(from)
	if _, ok := inOrder(got, count); !ok {
		overtakes := 0
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				overtakes++
			}
		}
		t.Fatalf("%d of %d messages overtook the one sent before them on the same link", overtakes, count)
	}
}

// TestMeshLinksConcurrent: many senders on many links at once, through
// Send and SendAll, to bare and pooled receivers. Every link delivers all
// its messages, in the order its sender sent them. Run it with -race.
func TestMeshLinksConcurrent(t *testing.T) {
	const senders, receivers, perLink = 8, 4, 100
	mesh := NewMesh(time.Millisecond)
	recs := make([]*recorder, receivers)
	tos := make([]types.NodeID, receivers)
	for i := range recs {
		tos[i] = types.ReplicaNode(types.ReplicaID(i))
		if i%2 == 0 {
			_, _, recs[i] = attachRecorder(t, mesh, tos[i])
			continue
		}
		// A bare node: its inbox holds 1024, more than the
		// senders*perLink = 800 messages it is sent.
		recs[i] = newRecorder()
		node := NewLiveNode(&recordProc{id: tos[i], r: recs[i]}, mesh, int64(i))
		mesh.Attach(node)
		node.Start()
		defer node.Stop()
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		from := types.ClientNode(types.ClientID(s))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < perLink; i++ {
				msg := &echoMsg{N: i}
				if i%2 == 0 {
					_ = mesh.SendAll(from, tos, msg)
					continue
				}
				for _, to := range tos {
					_ = mesh.Send(from, to, msg)
				}
			}
		}()
	}
	wg.Wait()
	for i, r := range recs {
		waitFor(t, func() bool { return r.n.Load() == senders*perLink })
		for s := 0; s < senders; s++ {
			from := types.ClientNode(types.ClientID(s))
			if at, ok := inOrder(r.from(from), perLink); !ok {
				t.Fatalf("link %v→%v: %d messages, out of order or short at position %d", from, tos[i], len(r.from(from)), at)
			}
		}
	}
}

// TestMeshLinkGoroutinesExit: a link's goroutine lives only while the link
// has messages in flight, and a destination that went away — detached,
// stopped, or behind a closed pool — never blocks its link: the link keeps
// delivering to whatever is attached under that identity later.
func TestMeshLinkGoroutinesExit(t *testing.T) {
	const burst = 50
	mesh := NewMesh(5 * time.Millisecond)
	from := types.ClientNode(0)
	gone := types.ReplicaNode(0) // pooled, detached and its pool closed
	bare := types.ReplicaNode(1) // attached bare, then stopped
	live := types.ReplicaNode(2) // stays

	goneNode, gonePool, _ := attachRecorder(t, mesh, gone)
	bareNode := NewLiveNode(&recordProc{id: bare, r: newRecorder()}, mesh, 1)
	mesh.Attach(bareNode)
	bareNode.Start()
	_, _, liveRec := attachRecorder(t, mesh, live)

	// The baseline counts gone's pool worker and bare's loop, both taken
	// down below while messages to them are in flight.
	baseline := runtime.NumGoroutine() - 2
	for i := 0; i < burst; i++ {
		_ = mesh.SendAll(from, []types.NodeID{gone, bare, live}, &echoMsg{N: uint64(i)})
	}
	// Take both destinations away while their messages are in flight.
	mesh.Detach(goneNode)
	gonePool.Close()
	bareNode.Stop()
	for i := 0; i < burst; i++ {
		_ = mesh.Send(from, gone, &echoMsg{N: uint64(i)}) // dropped: not attached
	}

	waitFor(t, func() bool { return liveRec.n.Load() == burst })
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })

	// The same identity attached again gets new messages on the same link.
	_, _, againRec := attachRecorder(t, mesh, gone)
	_ = mesh.Send(from, gone, &echoMsg{N: 0})
	waitFor(t, func() bool { return againRec.n.Load() == 1 })
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+1 }) // +1: the new pool's worker
}

// TestMeshDelayedSendAllocations: queueing on a warm delayed link
// allocates nothing per message, for Send and for each SendAll
// destination. One timer and closure per message used to cost two.
func TestMeshDelayedSendAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 1000
	mesh := NewMesh(50 * time.Millisecond)
	from := types.ClientNode(0)
	tos := []types.NodeID{types.ReplicaNode(0), types.ReplicaNode(1), types.ReplicaNode(2), types.ReplicaNode(3)}
	recs := make([]*recorder, len(tos))
	for i, to := range tos {
		_, _, recs[i] = attachRecorder(t, mesh, to)
	}
	msg := &echoMsg{N: 0}
	sent := int64(0)
	drained := func() {
		t.Helper()
		for _, r := range recs {
			waitFor(t, func() bool { return r.n.Load() == sent })
		}
	}

	// Warm every link: its queue storage grows to a full run's size, and
	// its drain goroutine has run once.
	for i := 0; i < 2*runs; i++ {
		_ = mesh.SendAll(from, tos, msg)
	}
	sent += 2 * runs
	drained()

	// AllocsPerRun makes one extra warm-up call.
	perSend := testing.AllocsPerRun(runs, func() {
		for _, to := range tos {
			_ = mesh.Send(from, to, msg)
		}
	}) / float64(len(tos))
	sent += runs + 1
	drained()
	perBroadcast := testing.AllocsPerRun(runs, func() { _ = mesh.SendAll(from, tos, msg) }) / float64(len(tos))
	sent += runs + 1
	drained()

	t.Logf("allocations: %.2f per Send, %.2f per SendAll destination", perSend, perBroadcast)
	if perSend >= 0.5 {
		t.Errorf("Send on a delayed link: %.2f allocations, want < 0.5", perSend)
	}
	if perBroadcast >= 0.5 {
		t.Errorf("SendAll on delayed links: %.2f allocations per destination, want < 0.5", perBroadcast)
	}
}
