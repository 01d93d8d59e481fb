package codec

import (
	"fmt"
	"sync"

	"ezbft/internal/types"
)

// Message is the interface every wire message implements. Type tags are
// globally unique across protocols (each protocol reserves a tag range) so a
// single transport can carry any protocol's traffic.
type Message interface {
	// Tag returns the message's globally unique one-byte type tag.
	Tag() uint8
	// MarshalTo appends the message body (excluding the tag) to w.
	MarshalTo(w *Writer)
}

// Decoder parses a message body (excluding the tag).
type Decoder func(r *Reader) (Message, error)

var registry struct {
	sync.RWMutex
	decoders [256]Decoder
	names    [256]string
}

// Register installs the decoder for a message tag. It is intended to be
// called from protocol package variable initializers; registering the same
// tag twice is a programming error and is reported on first use.
func Register(tag uint8, name string, dec Decoder) {
	registry.Lock()
	defer registry.Unlock()
	if registry.decoders[tag] != nil {
		// Duplicate registration indicates two protocols chose overlapping
		// tag ranges; surface it loudly at startup rather than corrupting
		// traffic at runtime.
		panic(fmt.Sprintf("codec: duplicate registration for tag %d (%s vs %s)",
			tag, registry.names[tag], name))
	}
	registry.decoders[tag] = dec
	registry.names[tag] = name
}

// Marshal encodes a full framed message: tag byte followed by the body.
func Marshal(m Message) []byte {
	w := NewWriter(128)
	w.Uint8(m.Tag())
	m.MarshalTo(w)
	return w.Bytes()
}

// Tailored is implemented by a message whose encoding may depend on the
// node it is sent to. Every encoding decodes to an equally valid message;
// a transport that encodes per destination writes MarshalFor's, one that
// hands the value over ignores it.
type Tailored interface {
	Message
	// MarshalFor appends the body (excluding the tag) that destination to
	// is sent, in the place of MarshalTo's.
	MarshalFor(w *Writer, to types.NodeID)
}

// AppendMarshal appends a full framed message (tag byte + body) to dst and
// returns the extended slice. It is the allocation-free variant of Marshal
// for callers that manage their own (typically pooled) buffers.
func AppendMarshal(dst []byte, m Message) []byte {
	return appendMarshal(dst, m, nil, 0)
}

// AppendMarshalFor is AppendMarshal for a message sent to node to: a
// Tailored message's encoding for that destination, any other's one
// encoding.
func AppendMarshalFor(dst []byte, m Message, to types.NodeID) []byte {
	t, _ := m.(Tailored)
	return appendMarshal(dst, m, t, to)
}

// appendMarshal writes m's tag and then its body into dst: t's for to when t
// is not nil. A Writer handed to a method of an interface value escapes, so
// a pooled one carries dst instead of one made here, and gets its own buffer
// back before it returns to the pool.
func appendMarshal(dst []byte, m Message, t Tailored, to types.NodeID) []byte {
	w := writerPool.Get().(*Writer)
	own := w.buf
	w.buf = append(dst, m.Tag())
	if t != nil {
		t.MarshalFor(w, to)
	} else {
		m.MarshalTo(w)
	}
	dst = w.buf
	w.buf = own[:0]
	writerPool.Put(w)
	return dst
}

// MarshalBody encodes only the message body (no tag). This is the byte
// string that authenticators sign.
func MarshalBody(m Message) []byte {
	w := NewWriter(128)
	m.MarshalTo(w)
	return w.Bytes()
}

// Unmarshal decodes a full framed message produced by Marshal.
func Unmarshal(b []byte) (Message, error) { return unmarshal(b, nil) }

// unmarshal decodes a framed message with memo (possibly nil) on the reader.
func unmarshal(b []byte, memo *Memo) (Message, error) {
	if len(b) == 0 {
		return nil, ErrShortBuffer
	}
	tag := b[0]
	registry.RLock()
	dec := registry.decoders[tag]
	registry.RUnlock()
	if dec == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, tag)
	}
	// The reader escapes through the decoder table, so it cannot live on the
	// stack; it is recycled instead. No decoder keeps it (decoded values copy
	// what they need out of the frame), and it lets go of the frame before it
	// returns to the pool.
	r := readerPool.Get().(*Reader)
	*r = Reader{buf: b[1:], memo: memo}
	m, err := dec(r)
	if err == nil {
		err = r.Finish()
	}
	*r = Reader{}
	readerPool.Put(r)
	if err != nil {
		return nil, fmt.Errorf("codec: decoding tag %d: %w", tag, err)
	}
	return m, nil
}

var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// EncodedSize returns the framed size of a message in bytes. The simulator
// uses it to charge per-byte transmission and processing costs.
func EncodedSize(m Message) int {
	w := GetWriter()
	w.Uint8(m.Tag())
	m.MarshalTo(w)
	n := w.Len()
	PutWriter(w)
	return n
}
