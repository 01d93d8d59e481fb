package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// maxFrame bounds a single wire frame (certificates with embedded
// histories stay well under this).
const maxFrame = 16 << 20

// Send and SendAll run on the caller's single ordering loop, so nothing in
// them may block for as long as a peer pleases: a dial gives up after
// dialTimeout (a black-holed address), and a write that cannot complete
// within its deadline (a peer that accepted the connection and stopped
// reading, once the socket buffer is full) fails and drops the connection.
// The deadline grows with the frame — writeTimeout plus the frame's length at
// minWriteRate — so a catch-up response near maxFrame is not cut off on a link
// that is merely slow, which would lose the same frame on every retry. After
// either timeout the peer is skipped for peerBackoff, so one that stalls every
// fresh connection costs the loop a bounded share of its time rather than a
// wait per refill. A dial that fails at once (nobody listens there: the
// replica is down) costs a socket and a dialer per attempt, which at one
// attempt per message is a fifth of a replica's processor time, so it starts
// a pause too, on replicas and clients alike: minBackoff, doubling with each
// further failure up to peerBackoff, and over as soon as a dial succeeds or
// the peer itself connects — which a replica does when it starts. Messages
// skipped during a pause are lost, which the protocols tolerate: nobody dials
// a client, so a client's pause ends only when it runs out, and a replica that
// came back meanwhile fetches the commits the client skipped from its peers
// (core's commit fetch). A healthy peer drains its socket in far less than
// any of these bounds.
const (
	dialTimeout  = 2 * time.Second
	writeTimeout = time.Second
	minWriteRate = 1 << 20 // bytes per second
	peerBackoff  = 5 * time.Second
	minBackoff   = 20 * time.Millisecond
)

// ErrPeerBackoff is returned for a send to a peer that could not be reached
// recently.
var ErrPeerBackoff = errors.New("transport: peer unreachable recently; send skipped")

// writeDeadline is how long one frame of n bytes may take to write.
func writeDeadline(n int) time.Duration {
	return writeTimeout + time.Duration(n)*time.Second/minWriteRate
}

// Frame buffers start at frameBufSize and are kept for reuse up to
// maxKeptFrame; ordinary protocol frames (certificates included) are far
// smaller, while a catch-up response or an owner-change history can come
// close to maxFrame.
const (
	frameBufSize = 4096
	maxKeptFrame = 64 << 10
)

// framePool recycles frame buffers across sends and receives: buffers grow
// to the largest frame they carried, up to maxKeptFrame, and are then
// reused, so the steady-state TCP hot path allocates no per-message
// buffers. A buffer that one large frame grew past maxKeptFrame is left to
// the collector instead — kept, it would pin that much memory per
// connection and then circulate through the pool. Pooled buffers are safe
// to reuse because no decoded value aliases a frame: decoding copies every
// variable-length field out of it, and the peer's codec.Memo copies each
// span it keeps into a slot of its own.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, frameBufSize)
		return &b
	},
}

// putFrame hands a buffer taken from framePool back, with frame being what
// the buffer grew to.
func putFrame(bp *[]byte, frame []byte) {
	if cap(frame) > maxKeptFrame {
		return
	}
	*bp = frame[:0]
	framePool.Put(bp)
}

// TCPPeer connects one local node to a cluster over TCP. Frames are
// 4-byte big-endian length + codec-marshaled message; the first frame on
// every outbound connection is a hello carrying the sender's node ID.
type TCPPeer struct {
	self  types.NodeID
	addrs map[types.NodeID]string
	onMsg func(from types.NodeID, msg codec.Message)
	// memo is this node's alone: every connection's frames decode through
	// it, so a SPECORDER embedded in replies and certificates is decoded
	// once per node, and it keeps what the node sends of a
	// codec.KeptWhenSent type in a table of their own (Memo.Sent), so a
	// certificate carrying a replica's own SPECREPLY back decodes to the
	// value the replica sent.
	memo *codec.Memo

	ln net.Listener

	mu    sync.Mutex
	conns map[types.NodeID]net.Conn
	// all tracks every live socket — including inbound connections that
	// lose the conns[from] return-route registration race when two peers
	// dial each other simultaneously — so Close reliably unblocks every
	// read goroutine instead of waiting forever on an untracked one.
	all map[net.Conn]struct{}
	// backoff holds, per peer whose dial failed or whose dial or write timed
	// out, the pause before a new connection to it is dialed.
	backoff map[types.NodeID]peerPause
	closed  bool
	wg      sync.WaitGroup
}

// peerPause is one peer's back-off: no dial before until, and the length the
// pause had, which the next failed dial doubles.
type peerPause struct {
	until time.Time
	step  time.Duration
}

var _ Sender = (*TCPPeer)(nil)

// NewTCPPeer starts listening on listenAddr and delivers inbound messages
// to onMsg (invoked from per-connection goroutines; callers serialize into
// their LiveNode via Deliver).
func NewTCPPeer(self types.NodeID, listenAddr string, addrs map[types.NodeID]string, onMsg func(from types.NodeID, msg codec.Message)) (*TCPPeer, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	p := &TCPPeer{
		self:    self,
		addrs:   make(map[types.NodeID]string, len(addrs)),
		onMsg:   onMsg,
		memo:    codec.NewMemo(),
		ln:      ln,
		conns:   make(map[types.NodeID]net.Conn),
		all:     make(map[net.Conn]struct{}),
		backoff: make(map[types.NodeID]peerPause),
	}
	for id, addr := range addrs {
		p.addrs[id] = addr
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listener address (useful with ":0" listeners).
func (p *TCPPeer) Addr() string { return p.ln.Addr().String() }

// SetAddr registers (or updates) a peer address.
func (p *TCPPeer) SetAddr(id types.NodeID, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.addrs[id] = addr
}

// Close shuts down the listener and all connections.
func (p *TCPPeer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	for c := range p.all {
		_ = c.Close()
	}
	p.all = make(map[net.Conn]struct{})
	p.conns = make(map[types.NodeID]net.Conn)
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// track records a live socket for Close; it refuses (closing the caller's
// responsibility) once the peer is closed.
func (p *TCPPeer) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.all[c] = struct{}{}
	return true
}

func (p *TCPPeer) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.all, c)
	p.mu.Unlock()
}

// Connect establishes (or reuses) the outbound connection to a peer so
// the peer learns this node's return route (from the hello frame) before
// any protocol message flows. Clients call it for every replica at
// startup: replicas answer clients over the client's own connection, so
// without pre-registration only the dialed replica could reply and the
// first command would always ride a retransmission.
func (p *TCPPeer) Connect(to types.NodeID) error {
	_, err := p.conn(to)
	return err
}

// Send implements Sender: self-sends loop back directly; remote sends use
// a cached outbound connection (dialed on demand). A failed send drops the
// message and the connection — protocols treat it as network loss.
func (p *TCPPeer) Send(from, to types.NodeID, msg codec.Message) error {
	if to == p.self {
		p.onMsg(from, msg)
		return nil
	}
	conn, err := p.conn(to)
	if err != nil {
		return err
	}
	// Marshal directly into a pooled buffer with the length header inline:
	// one allocation-free encode and one Write syscall per frame.
	bp := framePool.Get().(*[]byte)
	frame := p.encode((*bp)[:0], msg, to)
	werr := p.write(to, conn, frame)
	putFrame(bp, frame)
	return werr
}

// encode appends msg's frame for destination to — length header, tag and
// body, a codec.Tailored message's body for that destination — to dst. A
// codec.KeptWhenSent message goes into the node's memo (Memo.Sent) under
// the span it marshaled to before any of it is written, so the message that
// carries it back cannot be decoded first.
func (p *TCPPeer) encode(dst []byte, msg codec.Message, to types.NodeID) []byte {
	frame := append(dst, 0, 0, 0, 0)
	frame = codec.AppendMarshalFor(frame, msg, to)
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if _, ok := msg.(codec.KeptWhenSent); ok {
		p.memo.Sent.Store(frame[len(dst)+5:], msg) // after the length header and the tag
	}
	return frame
}

// MemoStats returns the lookup counts of the node's decode memo.
func (p *TCPPeer) MemoStats() codec.MemoStats { return p.memo.Stats() }

// write sends one frame under its write deadline; on any failure — expiry
// included, which may leave a partial frame on the stream — the connection
// is dropped.
func (p *TCPPeer) write(to types.NodeID, conn net.Conn, frame []byte) error {
	err := conn.SetWriteDeadline(time.Now().Add(writeDeadline(len(frame))))
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		p.dropConn(to, conn)
		p.backOff(to, err, false)
	}
	return err
}

// backOff starts the peer's pause after a failed dial (hello included) or
// write: the full peerBackoff after a timeout, which held the loop that long;
// after a dial that failed at once, twice the last pause, from minBackoff up
// to peerBackoff; after a write that failed at once, none — the next send
// dials.
func (p *TCPPeer) backOff(to types.NodeID, err error, dialing bool) {
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	if !timeout && !dialing {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	step := peerBackoff
	if !timeout {
		step = min(max(2*p.backoff[to].step, minBackoff), peerBackoff)
	}
	p.backoff[to] = peerPause{until: time.Now().Add(step), step: step}
}

// SendAll implements MultiSender: the frame is marshaled once into a
// pooled buffer and the same bytes are written to every destination's
// socket — replacing one marshal per destination on the broadcast-heavy
// protocol paths. A codec.Tailored message is marshaled once per
// destination instead, into the same buffer. Self-sends loop back the
// decoded message; a failed write drops that destination's connection and
// moves on (message loss, which the protocols tolerate). The first write
// error is returned.
func (p *TCPPeer) SendAll(from types.NodeID, tos []types.NodeID, msg codec.Message) error {
	bp := framePool.Get().(*[]byte)
	frame := (*bp)[:0]
	_, tailored := msg.(codec.Tailored)
	if !tailored {
		frame = p.encode(frame, msg, from) // one frame serves every destination
	}
	var firstErr error
	for _, to := range tos {
		if to == p.self {
			p.onMsg(from, msg)
			continue
		}
		conn, err := p.conn(to)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if tailored {
			frame = p.encode(frame[:0], msg, to)
		}
		if werr := p.write(to, conn, frame); werr != nil && firstErr == nil {
			firstErr = werr
		}
	}
	putFrame(bp, frame)
	return firstErr
}

var _ MultiSender = (*TCPPeer)(nil)

func (p *TCPPeer) conn(to types.NodeID) (net.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := p.conns[to]; ok {
		p.mu.Unlock()
		return c, nil
	}
	addr, ok := p.addrs[to]
	if time.Now().Before(p.backoff[to].until) {
		p.mu.Unlock()
		return nil, ErrPeerBackoff
	}
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address for %s", to)
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		p.backOff(to, err, true)
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	// Hello frame: our node id.
	hello := make([]byte, 4)
	binary.BigEndian.PutUint32(hello, uint32(p.self))
	err = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err == nil {
		err = writeFrame(c, hello)
	}
	if err != nil {
		_ = c.Close()
		p.backOff(to, err, true)
		return nil, fmt.Errorf("transport: hello to %s: %w", to, err)
	}
	p.mu.Lock()
	if existing, ok := p.conns[to]; ok {
		p.mu.Unlock()
		_ = c.Close()
		return existing, nil
	}
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return nil, ErrClosed
	}
	p.conns[to] = c
	p.all[c] = struct{}{}
	delete(p.backoff, to)
	p.mu.Unlock()
	// The peer answers over this same connection; read its frames.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.untrack(c)
		defer c.Close()
		p.readFrames(bufio.NewReader(c), to)
	}()
	return c, nil
}

func (p *TCPPeer) dropConn(to types.NodeID, conn net.Conn) {
	p.mu.Lock()
	if cur, ok := p.conns[to]; ok && cur == conn {
		delete(p.conns, to)
	}
	p.mu.Unlock()
	_ = conn.Close()
}

func (p *TCPPeer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !p.track(conn) {
			_ = conn.Close()
			return
		}
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

func (p *TCPPeer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer p.untrack(conn)
	defer conn.Close()
	r := bufio.NewReader(conn)
	hello, err := readFrame(r)
	if err != nil || len(hello) != 4 {
		return
	}
	from := types.NodeID(binary.BigEndian.Uint32(hello))
	// Register the inbound connection as the return route to this peer:
	// clients dial replicas from ephemeral addresses, so replies must
	// reuse the client's connection. A peer that connects is up, whatever
	// the last dial to it found: a restarted replica dials out first, and
	// is reachable again at once.
	p.mu.Lock()
	if _, ok := p.conns[from]; !ok && !p.closed {
		p.conns[from] = conn
	}
	delete(p.backoff, from)
	p.mu.Unlock()
	p.readFrames(r, from)
}

// readFrames delivers every well-formed frame from one connection, reusing
// one pooled buffer for the connection's lifetime (no decoded value aliases
// it; see framePool).
func (p *TCPPeer) readFrames(r *bufio.Reader, from types.NodeID) {
	bp := framePool.Get().(*[]byte)
	defer func() { putFrame(bp, *bp) }()
	for {
		frame, err := readFrameInto(r, bp)
		if err != nil {
			return
		}
		msg, err := p.memo.Unmarshal(frame)
		if err != nil {
			continue // malformed frame: drop, keep the connection
		}
		p.onMsg(from, msg)
	}
}

func writeFrame(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFrameInto reads one frame into *bp, growing it as needed and keeping
// the grown capacity, up to maxKeptFrame, for the next frame. The returned
// slice aliases *bp and is only valid until the next call. The header is
// read into *bp too (every connection buffer holds at least frameBufSize
// bytes): a local array would escape through io.Reader and cost an
// allocation per frame.
func readFrameInto(r io.Reader, bp *[]byte) ([]byte, error) {
	if cap(*bp) > maxKeptFrame {
		// The previous frame was a large one and has been decoded; let go
		// of its buffer before blocking on the next header.
		*bp = make([]byte, 0, frameBufSize)
	}
	hdr := (*bp)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := *bp
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
