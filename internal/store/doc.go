// Package store is the pluggable durability layer replicas write their
// ordering-critical state through: a write-ahead log plus a snapshot
// slot, behind one Store interface with a memory and a disk backend.
//
// # What gets logged
//
// The protocols (internal/core for ezBFT, internal/pbft) append a
// record before acting on each ordering-critical event — an accepted
// SPECORDER / PRE-PREPARE, an installed commit certificate, a final
// execution (carrying the per-client executed-timestamp updates), a
// checkpoint vote — and persist a full state dump through SaveSnapshot
// when a checkpoint becomes 2f+1-stable. Record kinds and payload
// encodings belong to the replicas (see core/durable.go, and
// engine/wal.go for the sequenced protocols); the store only frames,
// checksums, and orders them by LSN.
//
// # Durability guarantees (group fsync)
//
// Append buffers; Sync is the commit point. A replica calls Sync before
// the first message it sends after appending (durability before
// dispatch: nothing derived from a record reaches the wire before the
// record is stable) and once more at the end of any handler that
// appended without sending, so one fsync still covers a handler's whole
// record burst — group commit, keeping the hot path at one fsync per
// message rather than one per record. The window this opens is
// explicit: records whose derived messages were not yet sent when the
// crash hit may be lost, but nothing another node could have acted on
// is. Recovery tolerates that tail loss — the replica rejoins slightly
// behind and fetches the missing suffix through the ordinary CATCHUP
// path; no safety property rests on the final handler's records
// surviving. With fsync disabled (the default off the -fsync flag),
// Sync only flushes to the OS: the WAL survives process crashes but not
// power loss. A snapshot is cut synchronously in the checkpoint handler,
// streamed (Streamer.StreamSnapshot) from the replica's state through a
// small buffer into the file: nothing proportional to the state is
// allocated, but the handler still takes time proportional to it, once
// per checkpoint interval (fsync on makes it a stable-storage barrier).
//
// # On-disk format
//
// One directory per replica:
//
//	wal-<startLSN:016x>.log   WAL segments, named by their first LSN
//	snap-<cutLSN:016x>.snap   snapshot covering records LSN <= cut
//
// WAL records are framed [u32 len][u32 crc][u8 kind][u64 lsn][payload]
// with CRC-32/IEEE over kind+lsn+payload; snapshots are
// "EZSN"[u64 cut][u32 crc][u32 len][payload], streamed into a temp file
// (snap.tmp) behind a zero header that is patched once the payload is
// written, and atomically renamed. A temp file a crash left is never
// read; opening the store removes it. Segments rotate at Disk.MaxSegmentBytes;
// SaveSnapshot deletes every segment (the cut subsumes them) and older
// snapshots, bounding disk usage to one snapshot plus the WAL written
// since the last stable checkpoint — the durable mirror of the
// in-memory log-truncation lifecycle.
//
// # Recovery algorithm
//
// Opening a disk store scans the directory: the newest snapshot whose
// checksum verifies is adopted (damaged ones fall back to older
// snapshots), then the segments are walked in LSN order and the first
// torn or corrupted record ends the durable prefix — the segment is
// truncated there, later segments are deleted, and the next LSN
// resumes after the highest surviving record. The replica then
// restores the snapshot, replays the surviving WAL records above the
// snapshot cut (replay is idempotent: duplicate LSNs and
// already-installed state are skipped), and asks the cluster only for
// the tail it lost.
package store
