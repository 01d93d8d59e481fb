package transport

import (
	"sync"
	"testing"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/proc"
	"ezbft/internal/types"
)

func init() {
	// fakeMsg (verify_test.go) needs a decoder so TCP broadcasts of it
	// survive the wire.
	codec.Register(251, "transport.fakeMsg", func(r *codec.Reader) (codec.Message, error) {
		return &fakeMsg{id: r.Uvarint()}, r.Err()
	})
}

// chanProc is a minimal process forwarding deliveries to a channel.
type chanProc struct {
	id  types.NodeID
	out chan codec.Message
}

func (p *chanProc) ID() types.NodeID  { return p.id }
func (p *chanProc) Init(proc.Context) {}
func (p *chanProc) Receive(_ proc.Context, _ types.NodeID, msg codec.Message) {
	select {
	case p.out <- msg:
	default:
	}
}
func (p *chanProc) OnTimer(proc.Context, proc.TimerID) {}

// tailoredMsg is a fakeMsg whose encoding for a destination carries 10 ×
// its id plus the destination's.
type tailoredMsg struct{ fakeMsg }

func (m *tailoredMsg) MarshalFor(w *codec.Writer, to types.NodeID) { w.Uvarint(10*m.id + uint64(to)) }

// keptMsg is a fakeMsg its sender keeps in its memo. A memo keeps a value
// by the instance its encoding names after an owner number, so it writes
// one after its id.
type keptMsg struct{ fakeMsg }

func (m *keptMsg) KeepWhenSent() {}
func (m *keptMsg) MarshalTo(w *codec.Writer) {
	m.fakeMsg.MarshalTo(w)
	w.Instance(types.InstanceID{Space: 1, Slot: 9})
}

// TestTCPSendAllEncodeOnce: SendAll writes one identical frame to every
// peer; each receiver decodes the same logical message, and a self-send
// loops back the decoded value. A codec.Tailored message reaches each peer
// in its encoding for that peer, and a codec.KeptWhenSent one is in the
// sender's memo under the span it marshaled to once it is sent.
func TestTCPSendAllEncodeOnce(t *testing.T) {
	const n = 3
	type rx struct {
		mu  sync.Mutex
		got []codec.Message
	}
	var (
		peers [n]*TCPPeer
		boxes [n]rx
	)
	addrs := make(map[types.NodeID]string)
	for i := 0; i < n; i++ {
		i := i
		peer, err := NewTCPPeer(types.ReplicaNode(types.ReplicaID(i)), "127.0.0.1:0", nil,
			func(from types.NodeID, msg codec.Message) {
				boxes[i].mu.Lock()
				boxes[i].got = append(boxes[i].got, msg)
				boxes[i].mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		peers[i] = peer
		addrs[types.ReplicaNode(types.ReplicaID(i))] = peer.Addr()
	}
	for _, p := range peers {
		for id, addr := range addrs {
			p.SetAddr(id, addr)
		}
	}

	msg := &fakeMsg{id: 42}
	tos := []types.NodeID{
		types.ReplicaNode(0), // self: looped back decoded
		types.ReplicaNode(1),
		types.ReplicaNode(2),
	}
	if err := peers[0].SendAll(types.ReplicaNode(0), tos, msg); err != nil {
		t.Fatalf("SendAll: %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < n; i++ {
		for {
			boxes[i].mu.Lock()
			cnt := len(boxes[i].got)
			boxes[i].mu.Unlock()
			if cnt >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %d received nothing", i)
			}
			time.Sleep(time.Millisecond)
		}
		boxes[i].mu.Lock()
		got := boxes[i].got[0]
		boxes[i].mu.Unlock()
		fm, ok := got.(*fakeMsg)
		if !ok || fm.id != 42 {
			t.Fatalf("peer %d received %#v, want fakeMsg{42}", i, got)
		}
		if i == 0 && got != codec.Message(msg) {
			t.Fatal("self-send must loop back the decoded message value")
		}
	}

	if err := peers[0].SendAll(types.ReplicaNode(0), tos[1:], &tailoredMsg{fakeMsg{id: 4}}); err != nil {
		t.Fatalf("SendAll: %v", err)
	}
	kept := &keptMsg{fakeMsg{id: 5}}
	if err := peers[0].Send(types.ReplicaNode(0), types.ReplicaNode(1), kept); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if peers[0].memo.Sent.Recall(codec.NewReader(codec.MarshalBody(kept)), kept.Tag()) != codec.Message(kept) {
		t.Error("a sent KeptWhenSent message is not in the sender's memo")
	}
	for i := 1; i < n; i++ {
		want := uint64(40 + i)
		for {
			boxes[i].mu.Lock()
			got := boxes[i].got
			boxes[i].mu.Unlock()
			if len(got) >= 2 {
				if fm := got[1].(*fakeMsg); fm.id != want {
					t.Fatalf("peer %d received the tailored message as %d, want %d", i, fm.id, want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %d did not receive the tailored message", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMeshSendAllSharesValue: the in-process mesh hands every recipient
// the same decoded message value under one registry pass.
func TestMeshSendAllSharesValue(t *testing.T) {
	mesh := NewMesh(0)
	var nodes [2]*LiveNode
	var boxes [2]chan codec.Message
	for i := 0; i < 2; i++ {
		i := i
		boxes[i] = make(chan codec.Message, 1)
		p := &chanProc{id: types.ReplicaNode(types.ReplicaID(i)), out: boxes[i]}
		nodes[i] = NewLiveNode(p, mesh, int64(i)+1)
		mesh.Attach(nodes[i])
		nodes[i].Start()
		defer nodes[i].Stop()
	}
	msg := &fakeMsg{id: 7}
	if err := mesh.SendAll(types.ClientNode(9), []types.NodeID{
		types.ReplicaNode(0), types.ReplicaNode(1),
	}, msg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case got := <-boxes[i]:
			if got != codec.Message(msg) {
				t.Fatalf("node %d received a different value", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("node %d received nothing", i)
		}
	}
}
