// Package codec provides a deterministic, allocation-light binary encoding
// used both as the wire format for the TCP transport and as the canonical
// byte string over which messages are signed. Every protocol message in this
// repository marshals itself through a Writer and parses itself through a
// Reader; identical logical messages always produce identical bytes, which
// is what makes signatures over marshaled bytes meaningful.
//
// The format is a simple concatenation of fields: unsigned varints for
// integers, length-prefixed byte strings, and fixed-width digests. There is
// no reflection and no self-description: each message type knows its own
// layout (a registry in this package maps a one-byte type tag to a decoder).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"ezbft/internal/types"
)

// Common decode errors.
var (
	ErrShortBuffer     = errors.New("codec: short buffer")
	ErrOverflow        = errors.New("codec: varint overflows 64 bits")
	ErrUnknownType     = errors.New("codec: unknown message type tag")
	ErrTrailingData    = errors.New("codec: trailing data after message")
	ErrNonCanonicalSet = errors.New("codec: instance set members not in strictly increasing order")
	ErrLongVarint      = errors.New("codec: varint not in its shortest form")
	ErrBadBool         = errors.New("codec: boolean byte other than 0 or 1")
)

// Writer accumulates a deterministic binary encoding.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles Writers across hot-path encodings (signed bodies,
// wire frames). Buffers grow to fit the largest message they ever carried
// and are then reused, so steady-state encoding allocates nothing.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 512)} },
}

// GetWriter returns an empty pooled writer. Callers must not retain the
// writer's bytes past PutWriter; copy them or finish using them first.
func GetWriter() *Writer {
	return writerPool.Get().(*Writer)
}

// PutWriter resets a writer and returns it to the pool.
func PutWriter(w *Writer) {
	w.Reset()
	writerPool.Put(w)
}

// Bytes returns the encoded bytes. The returned slice aliases the writer's
// internal buffer; callers that retain it must not keep writing.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// spillBytes is how much a Writer that streams (Spill) holds before it
// writes out.
const spillBytes = 4 << 10

// Flush writes the encoded bytes to dst and empties the writer.
func (w *Writer) Flush(dst io.Writer) error {
	_, err := dst.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Spill flushes the writer to dst once it holds spillBytes or more, so an
// encoding of any length streams through a buffer of about that size plus
// its largest single field.
func (w *Writer) Spill(dst io.Writer) error {
	if len(w.buf) < spillBytes {
		return nil
	}
	return w.Flush(dst)
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Int32 appends a 32-bit integer (zig-zag varint so small negatives stay
// small).
func (w *Writer) Int32(v int32) {
	w.buf = binary.AppendVarint(w.buf, int64(v))
}

// Bytes32 appends a fixed 32-byte value.
func (w *Writer) Bytes32(d [32]byte) { w.buf = append(w.buf, d[:]...) }

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Instance appends an instance identifier.
func (w *Writer) Instance(id types.InstanceID) {
	w.Int32(int32(id.Space))
	w.Uvarint(id.Slot)
}

// InstanceSet appends a dependency set: the member count, then the members
// in the set's own (sorted) order.
func (w *Writer) InstanceSet(s types.InstanceSet) {
	w.Uvarint(uint64(len(s)))
	for _, id := range s {
		w.Instance(id)
	}
}

// Command appends a command.
func (w *Writer) Command(c types.Command) {
	w.Int32(int32(c.Client))
	w.Uvarint(c.Timestamp)
	w.Uint8(uint8(c.Op))
	w.String(c.Key)
	w.Blob(c.Value)
}

// Reader parses a deterministic binary encoding produced by Writer.
type Reader struct {
	buf  []byte
	off  int
	err  error
	memo *Memo
}

// NewReader wraps a byte slice for reading. The reader does not copy the
// slice; decoded Blob values are copied so they do not alias network
// buffers.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered while reading.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Memo returns the memo decoders may look embedded spans up in, or nil
// (every reader but Memo.Unmarshal's).
func (r *Reader) Memo() *Memo { return r.memo }

// Offset returns the number of bytes read so far.
func (r *Reader) Offset() int { return r.off }

// Since returns the bytes read from offset off, an earlier Offset, to the
// current one. The slice aliases the reader's input.
func (r *Reader) Since(off int) []byte { return r.buf[off:r.off] }

// Rewind moves the reader back to offset off, an earlier Offset. It is for a
// decoder that peeked at a field and now decodes it; the error state is
// kept.
func (r *Reader) Rewind(off int) { r.off = off }

// Finish returns an error if reading failed or bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailingData, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if !r.varintOK(n) {
		return 0
	}
	r.off += n
	return v
}

// varintOK checks the n a binary varint read returned at r.off. A varint
// padded with zero groups decodes to the value its shortest form does, and
// is refused: Writer never produces one, and accepted input must re-marshal
// to its own bytes.
func (r *Reader) varintOK(n int) bool {
	switch {
	case n == 0:
		r.fail(ErrShortBuffer)
	case n < 0:
		r.fail(ErrOverflow)
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail(ErrLongVarint)
	default:
		return true
	}
	return false
}

// Uint8 reads a single byte.
func (r *Reader) Uint8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a boolean; a byte other than 0 or 1 is an error, so each
// value has one encoding.
func (r *Reader) Bool() bool {
	switch r.Uint8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(ErrBadBool)
	return false
}

// Int32 reads a zig-zag varint 32-bit integer.
func (r *Reader) Int32() int32 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if !r.varintOK(n) {
		return 0
	}
	if v > 1<<31-1 || v < -(1<<31) {
		r.fail(ErrOverflow)
		return 0
	}
	r.off += n
	return int32(v)
}

// Bytes32 reads a fixed 32-byte value.
func (r *Reader) Bytes32() (d [32]byte) {
	if r.err != nil {
		return
	}
	if r.Remaining() < 32 {
		r.fail(ErrShortBuffer)
		return
	}
	copy(d[:], r.buf[r.off:])
	r.off += 32
	return
}

// Blob reads a length-prefixed byte string (copied).
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrShortBuffer)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Instance reads an instance identifier.
func (r *Reader) Instance() types.InstanceID {
	return types.InstanceID{
		Space: types.ReplicaID(r.Int32()),
		Slot:  r.Uvarint(),
	}
}

// instanceSetSanity bounds the members a decoded dependency set may claim.
const instanceSetSanity = 1 << 20

// InstanceSet reads a dependency set. An empty set decodes to nil and
// allocates nothing. Members that arrive out of order or repeated are
// rejected: no encoder here writes them so, every message that carries a set
// is signed over its canonical encoding, and this is the one place outside
// input becomes an InstanceSet, whose operations assume sorted, unique members.
func (r *Reader) InstanceSet() types.InstanceSet {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > instanceSetSanity {
		r.fail(fmt.Errorf("codec: instance set of %d entries exceeds sanity bound", n))
		return nil
	}
	// A member is at least two bytes, so the count is also bounded by the
	// bytes actually present: a forged header cannot force a large make.
	if n > uint64(r.Remaining())/2 {
		r.fail(ErrShortBuffer)
		return nil
	}
	s := make(types.InstanceSet, 0, n)
	for i := uint64(0); i < n; i++ {
		id := r.Instance()
		if r.err != nil {
			return nil
		}
		if len(s) > 0 && s[len(s)-1].Compare(id) >= 0 {
			r.fail(ErrNonCanonicalSet)
			return nil
		}
		s = append(s, id)
	}
	return s
}

// Command reads a command.
func (r *Reader) Command() types.Command {
	return types.Command{
		Client:    types.ClientID(r.Int32()),
		Timestamp: r.Uvarint(),
		Op:        types.Op(r.Uint8()),
		Key:       r.String(),
		Value:     r.Blob(),
	}
}
