package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Disk file layout (one directory per replica):
//
//	wal-<startLSN:016x>.log   WAL segments, named by their first LSN
//	snap-<cutLSN:016x>.snap   the snapshot covering records LSN <= cut
//
// Record framing inside a segment:
//
//	[u32 len][u32 crc][u8 kind][u64 lsn][payload]
//
// len counts the kind+lsn+payload bytes (little-endian), crc is
// CRC-32/IEEE over those same bytes. A record whose length field runs
// past the file or whose CRC mismatches marks the end of the valid
// prefix: Open truncates the segment there and discards any later
// segments, so a torn write or corrupted tail costs only the records
// at and after the damage — exactly what had not been acknowledged
// durable.
//
// Snapshot framing:
//
//	"EZSN"[u64 cut][u32 crc][u32 len][payload]
//
// Snapshots are streamed into a temp file behind a zero header, which is
// patched with the checksum and length once the payload is written, and
// then atomically renamed into place; SaveSnapshot then deletes every WAL
// segment (all existing records are subsumed by the cut) and older
// snapshots, which is what keeps the on-disk footprint bounded by one
// snapshot plus the WAL since the last stable checkpoint. A temp file
// left by a crash is never read, and Open removes it.
const (
	recHeader  = 4 + 4 // len + crc
	recFixed   = 1 + 8 // kind + lsn
	snapMagic  = "EZSN"
	snapHeader = 4 + 8 + 4 + 4 // magic + cut + crc + len
	snapTemp   = "snap.tmp"

	// snapBufferBytes is the buffer a snapshot streams through to its file.
	snapBufferBytes = 32 << 10

	// DefaultSegmentBytes is the rotation threshold for WAL segments.
	DefaultSegmentBytes = 1 << 20
)

// Disk is the on-disk Store. It has a single owner and is not safe for
// concurrent use.
type Disk struct {
	// MaxSegmentBytes rotates the WAL to a fresh segment once the
	// current one exceeds this size. Set it before the first Append
	// (tests use tiny segments to exercise rotation).
	MaxSegmentBytes int64

	dir      string
	fsync    bool
	next     uint64 // next LSN to assign
	snapCut  uint64
	snapPath string

	seg      *os.File
	segStart uint64
	segBytes int64
	buf      []byte // frame scratch
	unsynced bool

	snapOut snapSink      // the temp file a snapshot streams into
	snapBuf *bufio.Writer // in front of snapOut, reused across snapshots
}

// snapSink writes a snapshot's payload to its file, keeping the CRC-32 and
// the length of what went through.
type snapSink struct {
	f   *os.File
	crc uint32
	n   int64
}

func (s *snapSink) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	s.n += int64(len(p))
	return s.f.Write(p)
}

var _ Streamer = (*Disk)(nil)

// OpenDisk opens (or creates) the store under dir. When fsync is set,
// Sync and SaveSnapshot force the data to stable storage; without it
// the OS page cache decides (faster, survives process crashes but not
// power loss). Opening recovers the valid record prefix: a torn or
// corrupted record truncates the WAL at the damage point.
func OpenDisk(dir string, fsync bool) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk backend needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{MaxSegmentBytes: DefaultSegmentBytes, dir: dir, fsync: fsync, next: 1}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// segment is one scanned WAL file.
type segment struct {
	start uint64
	path  string
}

// recover scans the directory: adopt the newest valid snapshot,
// truncate the WAL at the first invalid record, and position the next
// LSN after everything durable.
func (d *Disk) recover() error {
	// A temp snapshot is one a crash cut short: never adopted.
	if err := os.Remove(filepath.Join(d.dir, snapTemp)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var segs []segment
	var snaps []segment // start = cut LSN
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64); err == nil {
				segs = append(segs, segment{start: lsn, path: filepath.Join(d.dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64); err == nil {
				snaps = append(snaps, segment{start: lsn, path: filepath.Join(d.dir, name)})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].start > snaps[j].start })

	// Newest snapshot whose payload checks out wins; damaged ones are
	// skipped (an older snapshot plus a longer replay is still correct).
	for _, s := range snaps {
		if _, err := readSnapshot(s.path, s.start); err == nil {
			d.snapPath, d.snapCut = s.path, s.start
			break
		}
	}

	// Walk the segments: the first invalid record ends the durable
	// prefix — truncate there and drop every later segment.
	maxLSN := d.snapCut
	truncated := false
	for _, s := range segs {
		if truncated {
			os.Remove(s.path)
			continue
		}
		valid, last, ok, err := scanSegment(s.path)
		if err != nil {
			return err
		}
		if last > maxLSN {
			maxLSN = last
		}
		if !ok {
			if err := os.Truncate(s.path, valid); err != nil {
				return fmt.Errorf("store: truncating torn tail: %w", err)
			}
			truncated = true
		}
	}
	d.next = maxLSN + 1

	// Append into the last surviving segment, or a fresh one.
	live := segs[:0]
	for _, s := range segs {
		if _, err := os.Stat(s.path); err == nil {
			live = append(live, s)
		}
	}
	if len(live) > 0 {
		last := live[len(live)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		d.seg, d.segStart, d.segBytes = f, last.start, info.Size()
		return nil
	}
	return d.openSegment()
}

// openSegment starts a fresh segment at the next LSN.
func (d *Disk) openSegment() error {
	path := filepath.Join(d.dir, fmt.Sprintf("wal-%016x.log", d.next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.seg, d.segStart, d.segBytes = f, d.next, 0
	return nil
}

// Append implements Store.
func (d *Disk) Append(kind uint8, data []byte) (uint64, error) {
	if d.seg == nil {
		return 0, fmt.Errorf("store: closed")
	}
	lsn := d.next
	body := uint32(recFixed + len(data))
	d.buf = d.buf[:0]
	d.buf = binary.LittleEndian.AppendUint32(d.buf, body)
	d.buf = append(d.buf, 0, 0, 0, 0) // crc placeholder
	d.buf = append(d.buf, kind)
	d.buf = binary.LittleEndian.AppendUint64(d.buf, lsn)
	d.buf = append(d.buf, data...)
	binary.LittleEndian.PutUint32(d.buf[4:8], crc32.ChecksumIEEE(d.buf[recHeader:]))
	if _, err := d.seg.Write(d.buf); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	d.next++
	d.segBytes += int64(len(d.buf))
	d.unsynced = true
	if d.segBytes >= d.MaxSegmentBytes {
		if err := d.rotate(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rotate closes the current segment (synced if configured) and opens a
// fresh one at the next LSN.
func (d *Disk) rotate() error {
	if err := d.Sync(); err != nil {
		return err
	}
	if err := d.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return d.openSegment()
}

// Sync implements Store: the group-commit point.
func (d *Disk) Sync() error {
	if d.seg == nil || !d.unsynced {
		return nil
	}
	if d.fsync {
		if err := d.seg.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	d.unsynced = false
	return nil
}

// SaveSnapshot implements Store.
func (d *Disk) SaveSnapshot(data []byte) error { return d.StreamSnapshot(writeBytes(data)) }

// StreamSnapshot implements Streamer: the payload streams into a temp file
// through one reused buffer, the header is patched in, and the file is
// atomically renamed into place; then every WAL segment (all subsumed by
// the cut) and older snapshots are deleted.
func (d *Disk) StreamSnapshot(write func(w io.Writer) error) error {
	if d.seg == nil {
		return fmt.Errorf("store: closed")
	}
	if err := d.Sync(); err != nil {
		return err
	}
	cut := d.next - 1
	tmp := filepath.Join(d.dir, snapTemp)
	if err := d.writeSnapshot(tmp, cut, write); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	path := filepath.Join(d.dir, fmt.Sprintf("snap-%016x.snap", cut))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if d.fsync {
		if dir, err := os.Open(d.dir); err == nil {
			_ = dir.Sync()
			dir.Close()
		}
	}
	if d.snapPath != "" && d.snapPath != path {
		os.Remove(d.snapPath)
	}
	d.snapPath, d.snapCut = path, cut

	// The WAL below the cut is garbage now — and the cut is everything,
	// so drop all segments and start fresh.
	if err := d.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
	d.unsynced = false
	return d.openSegment()
}

// writeSnapshot streams one snapshot file to path: a zero header, the
// payload write produces, then the header with the payload's checksum and
// length, and an fsync if configured.
func (d *Disk) writeSnapshot(path string, cut uint64, write func(w io.Writer) error) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var hdr [snapHeader]byte
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	d.snapOut = snapSink{f: f}
	defer func() { d.snapOut.f = nil }()
	if d.snapBuf == nil {
		d.snapBuf = bufio.NewWriterSize(&d.snapOut, snapBufferBytes)
	}
	d.snapBuf.Reset(&d.snapOut)
	if err := write(d.snapBuf); err != nil {
		return err
	}
	if err := d.snapBuf.Flush(); err != nil {
		return err
	}
	if d.snapOut.n > math.MaxUint32 {
		return fmt.Errorf("%d bytes do not fit the snapshot header", d.snapOut.n)
	}
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], cut)
	binary.LittleEndian.PutUint32(hdr[12:16], d.snapOut.crc)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(d.snapOut.n))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if d.fsync {
		return f.Sync()
	}
	return nil
}

// LoadSnapshot implements Store.
func (d *Disk) LoadSnapshot() ([]byte, uint64, error) {
	if d.snapPath == "" {
		return nil, 0, nil
	}
	data, err := readSnapshot(d.snapPath, d.snapCut)
	if err != nil {
		return nil, 0, err
	}
	return data, d.snapCut, nil
}

// Replay implements Store. It re-reads the segment files; records at or
// below the snapshot cut, duplicated LSNs, and anything after the first
// invalid record are skipped.
func (d *Disk) Replay(fn func(Record) error) error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			if lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64); err == nil {
				segs = append(segs, segment{start: lsn, path: filepath.Join(d.dir, name)})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	last := d.snapCut
	for _, s := range segs {
		buf, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		off := 0
		for {
			rec, n, ok := decodeRecord(buf[off:])
			if !ok {
				break // invalid prefix end (already truncated by Open)
			}
			off += n
			if rec.LSN <= last {
				continue // subsumed by the snapshot, or a duplicate
			}
			last = rec.LSN
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Empty implements Store.
func (d *Disk) Empty() bool { return d.snapPath == "" && d.next == 1 }

// Close implements Store.
func (d *Disk) Close() error {
	if d.seg == nil {
		return nil
	}
	err := d.Sync()
	if cerr := d.seg.Close(); err == nil {
		err = cerr
	}
	d.seg = nil
	return err
}

// decodeRecord parses one framed record from b, returning the record,
// its encoded size, and whether it was valid.
func decodeRecord(b []byte) (Record, int, bool) {
	if len(b) < recHeader {
		return Record{}, 0, false
	}
	body := binary.LittleEndian.Uint32(b[0:4])
	if body < recFixed || int(body) > len(b)-recHeader {
		return Record{}, 0, false // torn or nonsense length
	}
	crc := binary.LittleEndian.Uint32(b[4:8])
	payload := b[recHeader : recHeader+int(body)]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, false
	}
	return Record{
		Kind: payload[0],
		LSN:  binary.LittleEndian.Uint64(payload[1:9]),
		Data: payload[recFixed:],
	}, recHeader + int(body), true
}

// scanSegment walks a segment's records, returning the byte length of
// the valid prefix, the highest LSN in it, and whether the whole file
// was valid.
func scanSegment(path string) (validBytes int64, lastLSN uint64, ok bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: %w", err)
	}
	off := 0
	for off < len(buf) {
		rec, n, valid := decodeRecord(buf[off:])
		if !valid {
			return int64(off), lastLSN, false, nil
		}
		off += n
		if rec.LSN > lastLSN {
			lastLSN = rec.LSN
		}
	}
	return int64(off), lastLSN, true, nil
}

// readSnapshot reads and validates one snapshot file, checking the
// header's cut against the filename-derived cut.
func readSnapshot(path string, wantCut uint64) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if len(buf) < snapHeader || string(buf[:4]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot %s: bad header", path)
	}
	cut := binary.LittleEndian.Uint64(buf[4:12])
	crc := binary.LittleEndian.Uint32(buf[12:16])
	size := binary.LittleEndian.Uint32(buf[16:20])
	if cut != wantCut || int(size) != len(buf)-snapHeader {
		return nil, fmt.Errorf("store: snapshot %s: truncated or mismatched", path)
	}
	data := buf[snapHeader:]
	if crc32.ChecksumIEEE(data) != crc {
		return nil, fmt.Errorf("store: snapshot %s: checksum mismatch", path)
	}
	return data, nil
}
