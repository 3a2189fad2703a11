// Package wal implements a physical redo write-ahead log for the
// page-based store, the durability half of the disk-backed WALRUS index.
//
// The log is a single file of length+CRC-framed records behind a fixed
// header. Three record classes exist: full page images (redo records),
// app records (opaque payloads the database layer uses for catalog
// deltas), and markers (commit, checkpoint). Appends accumulate in a
// group-commit buffer; Flush writes them to the OS and Sync makes them
// durable. Every record is addressed by its LSN — a monotonically
// increasing log position that survives each reset via the base offset
// stored in the header (and, as a fallback, in the page file's meta
// page).
//
// The file is reused, never shrunk: a checkpoint's Reset rewrites only
// the header, and the next generation's records overwrite the blocks of
// the previous ones. When an append would pass the file's end, the log
// writes real zero bytes ahead of it up to the next extendChunk boundary,
// so an fsync of a steady-state commit flushes log bytes into blocks the
// file system has already allocated instead of also committing a size
// change. Each record carries its own LSN, and recovery stops at the
// first record whose LSN is not base + offset: every record of an earlier
// generation has an LSN below the current base, so stale bytes are never
// replayed, whatever their checksums say.
//
// Recovery (see recover.go) is ARIES-lite: redo-only, no undo. The
// database layer guarantees the no-steal discipline (uncommitted pages
// never reach the page file; see store.FlushHook), so scanning the log,
// discarding the torn or uncommitted tail, and reapplying committed page
// images whose LSN exceeds the on-disk page LSN reconstructs exactly the
// state of the last committed operation.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"walrus/internal/obs"
	"walrus/internal/store"
)

// LSN is a log sequence number: a position in the logical log stream. It
// increases monotonically across log resets. 0 means "never logged".
type LSN uint64

// Record types.
const (
	recPage       = 1 // full page image; pageID set, payload = usable page bytes
	recCommit     = 2 // transaction boundary: records before this are atomic
	recCheckpoint = 3 // all prior page images are reflected in the page file
	recApp        = 4 // opaque app payload (catalog delta), tagged by kind
)

// Framing constants.
const (
	headerSize = 32
	// RecordOverhead is the size of a record header; a marker record
	// (commit, checkpoint) is exactly this long.
	RecordOverhead = 24
	// recordOverheadV1 is the record header of a version 1 log, which
	// has no LSN field.
	recordOverheadV1 = 16

	walMagic   = 0x57414C4C // "WALL"
	walVersion = 2
	// walVersionV1 logs grew on every append and were truncated at every
	// reset. Recovery still reads them; the first Reset rewrites the
	// file as the current version.
	walVersionV1 = 1

	// extendChunk is the granularity the log file grows in: an append
	// that passes the file's end zero-fills up to the next multiple of
	// it, so a file grows (and journals a size change) once per chunk.
	extendChunk = 1 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// zeroChunk is the source of the zero bytes an extension writes.
var zeroChunk [extendChunk]byte

// Log is an append-only write-ahead log. Safe for concurrent use, though
// the database serializes writers anyway.
type Log struct {
	mu       sync.Mutex
	f        store.File
	pageSize int    // physical page size of the paired page file
	base     LSN    // LSN of the first byte after the header
	version  uint32 // record framing: walVersion, or walVersionV1 until the first reset

	written int64 // file offset: everything below is written to the OS
	durable int64 // file offset: everything below is fsynced
	alloc   int64 // file offset: the file is known to extend this far
	buf     []byte

	om logMetrics // guarded by mu; zero value = observability off
}

// Record header layout (RecordOverhead bytes):
//
//	offset 0:  payload length (uint32)
//	offset 4:  CRC32-Castagnoli over bytes [8, 24+len) (uint32)
//	offset 8:  record type (byte)
//	offset 9:  app kind (byte; 0 unless type is recApp)
//	offset 10: reserved (uint16)
//	offset 12: page id (uint32; 0 unless type is recPage)
//	offset 16: the record's LSN (uint64)
//
// A version 1 record header is the first 16 bytes of this layout, its
// CRC covering bytes [8, 16+len).

// Create initializes a fresh log on f (truncating it) for a page file
// with the given physical page size, starting the LSN stream at base.
// It writes only the header; the file grows with the first appends.
func Create(f store.File, pageSize int, base LSN) (*Log, error) {
	if err := f.Truncate(0); err != nil {
		return nil, fmt.Errorf("wal: truncating: %w", err)
	}
	l := &Log{f: f, pageSize: pageSize, version: walVersion}
	if err := l.reset(base); err != nil {
		return nil, err
	}
	return l, nil
}

// overhead is the record header size of the log's framing.
func overhead(version uint32) int {
	if version == walVersionV1 {
		return recordOverheadV1
	}
	return RecordOverhead
}

func encodeHeader(pageSize int, base LSN, version uint32) []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(h[0:], walMagic)
	binary.LittleEndian.PutUint32(h[4:], version)
	binary.LittleEndian.PutUint32(h[8:], uint32(pageSize))
	binary.LittleEndian.PutUint32(h[12:], 0)
	binary.LittleEndian.PutUint64(h[16:], uint64(base))
	binary.LittleEndian.PutUint32(h[24:], crc32.Checksum(h[:24], walCRC))
	binary.LittleEndian.PutUint32(h[28:], 0)
	return h
}

func decodeHeader(h []byte) (pageSize int, base LSN, version uint32, ok bool) {
	if len(h) < headerSize {
		return 0, 0, 0, false
	}
	version = binary.LittleEndian.Uint32(h[4:])
	if binary.LittleEndian.Uint32(h[0:]) != walMagic ||
		(version != walVersion && version != walVersionV1) {
		return 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(h[24:]) != crc32.Checksum(h[:24], walCRC) {
		return 0, 0, 0, false
	}
	ps := binary.LittleEndian.Uint32(h[8:])
	if ps < 64 || ps > 1<<24 {
		return 0, 0, 0, false
	}
	return int(ps), LSN(binary.LittleEndian.Uint64(h[16:])), version, true
}

// lsnAt maps a file offset to an LSN. Caller holds mu.
func (l *Log) lsnAt(off int64) LSN { return l.base + LSN(off-headerSize) }

// EndLSN returns the LSN one past the last appended record (including
// buffered, not-yet-written appends).
func (l *Log) EndLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnAt(l.written + int64(len(l.buf)))
}

// DurableLSN returns the LSN up to which the log is known fsynced.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnAt(l.durable)
}

// Size returns the log's logical size in bytes, including buffered
// appends — the quantity checkpoint scheduling throttles on.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written + int64(len(l.buf)) - headerSize
}

// appendLocked frames one record into the group-commit buffer and returns its
// LSN. Caller holds mu.
func (l *Log) appendLocked(typ, kind byte, pageID uint32, payload []byte) LSN {
	var start time.Time
	if l.om.reg != nil {
		start = obs.Clock()
	}
	lsn := l.lsnAt(l.written + int64(len(l.buf)))
	n := len(l.buf)
	l.buf = appendRecord(l.buf, l.version, typ, kind, pageID, lsn, payload)
	l.om.appends.Inc()
	if l.om.reg != nil {
		l.om.reg.RecordSpan("wal.append", 0, start, obs.Since(start),
			obs.Attr{Key: "bytes", Value: int64(len(l.buf) - n)})
	}
	return lsn
}

// appendRecord frames one record in the given version's layout onto dst.
func appendRecord(dst []byte, version uint32, typ, kind byte, pageID uint32, lsn LSN, payload []byte) []byte {
	n := overhead(version)
	h := [RecordOverhead]byte{}
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	h[8] = typ
	h[9] = kind
	binary.LittleEndian.PutUint32(h[12:], pageID)
	if n == RecordOverhead {
		binary.LittleEndian.PutUint64(h[16:], uint64(lsn))
	}
	sum := crc32.Checksum(h[8:n], walCRC)
	sum = crc32.Update(sum, walCRC, payload)
	binary.LittleEndian.PutUint32(h[4:], sum)
	dst = append(dst, h[:n]...)
	return append(dst, payload...)
}

// AppendPage logs a full page image (usable bytes, as stored in a buffer
// pool frame) and returns the record's LSN, which the caller stamps on
// the frame so the page footer and the log agree.
func (l *Log) AppendPage(pageID uint32, data []byte) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(recPage, 0, pageID, data)
}

// AppendApp logs an opaque application record tagged with kind.
func (l *Log) AppendApp(kind byte, payload []byte) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(recApp, kind, 0, payload)
}

// AppendCommit logs a transaction boundary: records appended since the
// previous boundary become atomic with respect to recovery.
func (l *Log) AppendCommit() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.om.commits.Inc()
	return l.appendLocked(recCommit, 0, 0, nil)
}

// Flush writes the group-commit buffer to the OS without fsyncing.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.WriteAt(l.buf, l.written); err != nil {
		return fmt.Errorf("wal: writing %d bytes at %d: %w", len(l.buf), l.written, err)
	}
	end := l.written + int64(len(l.buf))
	if end > l.alloc && l.version == walVersion {
		if err := l.extendLocked(end); err != nil {
			return err
		}
	}
	l.om.bytesWritten.Add(uint64(len(l.buf)))
	l.written = end
	l.buf = l.buf[:0]
	return nil
}

// extendLocked makes the file reach the extendChunk boundary at or past
// end, the end of the bytes just written, by writing real zeros after
// them: each byte of the file is zeroed at most once, and the size change
// rides on the next Sync. A reopened log may already reach the boundary
// (an earlier generation allocated it), which one read tells. Version 1
// logs are not extended: with no LSN to tell zeros from a torn record,
// their recovery counts any tail as torn. Caller holds mu.
func (l *Log) extendLocked(end int64) error {
	target := (end + extendChunk - 1) / extendChunk * extendChunk
	var last [1]byte
	if n, err := l.f.ReadAt(last[:], target-1); n == 1 && err == nil {
		l.alloc = target
		return nil
	}
	if target > end {
		if _, err := l.f.WriteAt(zeroChunk[:target-end], end); err != nil {
			return fmt.Errorf("wal: extending to %d: %w", target, err)
		}
	}
	l.alloc = target
	return nil
}

// Sync flushes the buffer and forces the log to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.durable == l.written {
		return nil
	}
	var start time.Time
	if l.om.reg != nil {
		start = obs.Clock()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.durable = l.written
	l.om.fsyncs.Inc()
	if l.om.reg != nil {
		d := obs.Since(start)
		l.om.fsyncSeconds.Observe(d.Seconds())
		l.om.reg.RecordSpan("wal.fsync", 0, start, d)
	}
	return nil
}

// MaybeSync flushes the buffer to the OS and fsyncs only once at least
// threshold bytes have accumulated since the last sync — the group-commit
// policy.
func (l *Log) MaybeSync(threshold int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.written-l.durable >= threshold {
		var start time.Time
		if l.om.reg != nil {
			start = obs.Clock()
		}
		if err := l.syncLocked(); err != nil {
			return err
		}
		l.om.groupCommits.Inc()
		if l.om.reg != nil {
			l.om.reg.RecordSpan("wal.group_commit", 0, start, obs.Since(start))
		}
	}
	return nil
}

// EnsureDurable forces the log durable through lsn (the log-before-flush
// invariant consulted by the buffer pool before any page write-back).
// When sync is false it only flushes to the OS — the contract of
// Durability: None.
func (l *Log) EnsureDurable(lsn LSN, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// lsnAt(durable) is the LSN the next appended byte would get; a
	// record is durable only when its start LSN lies strictly below it.
	if lsn == 0 || lsn < l.lsnAt(l.durable) {
		return nil
	}
	if !sync {
		return l.flushLocked()
	}
	return l.syncLocked()
}

// Checkpoint appends a checkpoint record and forces the log durable. The
// caller must have flushed and synced the page file first: the record
// asserts that every earlier page image is reflected on disk.
func (l *Log) Checkpoint() (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.appendLocked(recCheckpoint, 0, 0, nil)
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// NextBase returns the LSN just past a checkpoint marker appended now:
// the base of the generation that a Reset after that checkpoint starts.
func (l *Log) NextBase() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnAt(l.written + int64(len(l.buf)) + int64(overhead(l.version)))
}

// Reset discards the log contents and starts a fresh generation whose
// LSN stream begins at newBase (which must be >= the old end LSN; the
// caller persists it in the page file's meta beforehand so recovery can
// rebuild the header if this very sequence is torn). It rewrites and
// syncs the header only: the file keeps its size and blocks, and the
// previous generation's records stay behind as stale bytes, which the
// LSN check in recovery rejects.
func (l *Log) Reset(newBase LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur := l.lsnAt(l.written + int64(len(l.buf))); newBase < cur {
		return fmt.Errorf("wal: reset base %d below current end LSN %d", newBase, cur)
	}
	return l.reset(newBase)
}

func (l *Log) reset(newBase LSN) error {
	if l.version == walVersionV1 {
		// Version 1 records carry no LSN, so their stale bytes could not
		// be told from the next generation's: drop them, once.
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncating version %d log: %w", walVersionV1, err)
		}
		l.alloc = 0
	}
	if _, err := l.f.WriteAt(encodeHeader(l.pageSize, newBase, walVersion), 0); err != nil {
		return fmt.Errorf("wal: writing header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync after reset: %w", err)
	}
	l.version = walVersion
	l.base = newBase
	l.written = headerSize
	l.durable = headerSize
	l.alloc = max(l.alloc, headerSize)
	l.buf = l.buf[:0]
	return nil
}

// Close flushes, syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(); err != nil {
		return errors.Join(err, l.f.Close())
	}
	return l.f.Close()
}
