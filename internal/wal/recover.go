package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"walrus/internal/store"
)

// RecoveryStats reports what Recover found and did.
type RecoveryStats struct {
	// Replayed is true when the log contained at least one committed
	// record — i.e. the database was not shut down cleanly.
	Replayed bool
	// RecordsScanned counts records in the committed region of the log.
	RecordsScanned int
	// PagesApplied counts page images written to the page file.
	PagesApplied int
	// PagesSkipped counts page images whose LSN did not exceed the
	// on-disk page LSN (already reflected; the ARIES pageLSN test).
	PagesSkipped int
	// Commits and Checkpoints count the respective markers.
	Commits, Checkpoints int
	// TornBytes is the number of log bytes of the current generation
	// discarded past the committed region: any complete records of an
	// uncommitted trailing transaction plus the torn or corrupt record
	// the scan stopped at. Zeros and stale records of earlier
	// generations, which fill the rest of a reused log file, do not
	// count. When the header itself is unreadable, it is the whole file.
	TornBytes int64
	// LastCheckpointLSN is the LSN of the last checkpoint record in the
	// committed region (0 if none).
	LastCheckpointLSN LSN
}

// AppFunc receives committed app records during recovery, oldest first,
// with their LSNs, so the caller can tell those past the last checkpoint.
type AppFunc func(lsn LSN, kind byte, payload []byte) error

// scanned is one well-formed record found by scanLog.
type scanned struct {
	off     int64 // offset of the record header, relative to the record region
	typ     byte
	kind    byte
	pageID  uint32
	payload []byte // aliases the reader's buffer
}

// scanResult is what scanLog found in a log's record region.
type scanResult struct {
	recs      []scanned // the committed records, oldest first
	commitEnd int64     // end of the last commit or checkpoint marker
	afterCkpt int       // index just past the last checkpoint (0 if none)
	lastCkpt  int       // index of the last checkpoint (-1 if none)
	// tornBytes counts the bytes of this generation past commitEnd:
	// complete records of an uncommitted transaction, plus the part of
	// the file held by the record the scan stopped at, unless that record
	// provably belongs to an earlier generation (its LSN lies below base;
	// zeros carry LSN 0). Stale generations end the log cleanly.
	tornBytes int64
}

// scanLog parses the record region of a log (everything after the
// header) with the given base. It stops at the first torn, truncated or
// corrupt record, or at the first record whose LSN is not base + its
// offset, and returns the committed prefix. pageSize bounds plausible
// payload sizes. It reads from r only as far as the parse goes.
func scanLog(r *logReader, pageSize int, base LSN) (scanResult, error) {
	maxPayload := max(pageSize, 1<<20) // app records are not bounded by the page size
	usable := pageSize - store.PageFooterSize
	hdr := int64(RecordOverhead)
	res := scanResult{lastCkpt: -1}
	var recs []scanned
	var off int64
	for {
		data, err := r.upTo(headerSize + off + hdr)
		if err != nil {
			return res, err
		}
		rest := data[headerSize+off:]
		if int64(len(rest)) < hdr {
			res.tornBytes = int64(len(rest)) // a header cut short by the end of the file
			break
		}
		h := rest[:hdr]
		plen := int64(binary.LittleEndian.Uint32(h[0:]))
		end := off + hdr + min(plen, int64(maxPayload))
		if data, err = r.upTo(headerSize + end); err != nil {
			return res, err
		}
		// avail is the part of the record the file holds: what a stop
		// here discards.
		avail := min(end, int64(len(data))-headerSize) - off
		if lsn := LSN(binary.LittleEndian.Uint64(h[16:])); lsn != base+LSN(off) {
			if lsn >= base {
				res.tornBytes = avail
			}
			break
		}
		typ := h[8]
		if typ < recPage || typ > recApp || plen > int64(maxPayload) ||
			(typ == recPage && plen != int64(usable)) ||
			avail < hdr+plen { // torn tail: record extends past the file
			res.tornBytes = avail
			break
		}
		payload := data[headerSize+off+hdr : headerSize+end]
		sum := crc32.Checksum(h[8:hdr], walCRC)
		sum = crc32.Update(sum, walCRC, payload)
		if binary.LittleEndian.Uint32(h[4:]) != sum {
			res.tornBytes = avail
			break
		}
		recs = append(recs, scanned{
			off:     off,
			typ:     typ,
			kind:    h[9],
			pageID:  binary.LittleEndian.Uint32(h[12:]),
			payload: payload,
		})
		if typ == recCommit || typ == recCheckpoint {
			res.commitEnd = end
		}
		if typ == recCheckpoint {
			res.afterCkpt = len(recs)
			res.lastCkpt = len(recs) - 1
		}
		off = end
	}
	// Trim records of the uncommitted trailing transaction.
	res.tornBytes += off - res.commitEnd
	n := len(recs)
	for n > 0 && recs[n-1].off >= res.commitEnd {
		n--
	}
	res.recs = recs[:n]
	return res, nil
}

// readBlock is the smallest read a logReader issues.
const readBlock = 64 << 10

// logReader reads a log file from its start on demand, so recovery reads
// only as far as the committed records go, not the zeros and stale
// generations that fill the rest of a reused file.
type logReader struct {
	f    store.File
	data []byte // the file's first len(data) bytes
	eof  bool
}

// upTo makes r.data hold the first n bytes of the file, or all of them if
// the file is shorter, and returns it.
func (r *logReader) upTo(n int64) ([]byte, error) {
	for int64(len(r.data)) < n && !r.eof {
		have := len(r.data)
		// At least a block, at most doubling what is held, so reading
		// to the end of the file (n = math.MaxInt64) stays geometric.
		want := int(min(max(n-int64(have), readBlock), int64(max(have, readBlock))))
		r.data = slices.Grow(r.data, want)
		m, err := r.f.ReadAt(r.data[have:have+want], int64(have))
		r.data = r.data[:have+m]
		switch {
		case err == io.EOF || (err == nil && m == 0):
			r.eof = true
		case err != nil:
			return nil, err
		}
	}
	return r.data, nil
}

// Recover replays logFile against dbFile (the page file, accessed below
// the Pager) and returns a Log positioned for appending after the last
// committed record.
//
// The scan walks the record region from the front, stops at the first
// torn or corrupt record, and discards everything after the last commit
// or checkpoint marker — an in-flight transaction's records are dropped
// wholesale, which together with the no-steal buffer-pool policy makes
// every operation atomic across crashes. Page images after the last
// checkpoint are reapplied if their LSN exceeds the on-disk page LSN (a
// page whose footer fails its checksum — a torn page write — counts as
// LSN 0 and is always repaired). Committed app records are handed to
// onApp oldest-first, including those before the checkpoint; the caller
// filters by LSN. Finally,
// if this generation left bytes past the committed region (see
// RecoveryStats.TornBytes), the log is truncated to the committed region,
// so no uncommitted record of this generation, whose LSN would pass the
// scan's check, lies ahead of the next appends. A log that ends cleanly
// in zeros or stale generations keeps its size and blocks.
//
// If the log header itself is unreadable (torn during Reset), the log is
// reinitialized empty with fallbackPageSize and fallbackBase, which the
// caller recovers from the page file's meta (store.PeekMeta).
func Recover(logFile, dbFile store.File, fallbackPageSize int, fallbackBase LSN, onApp AppFunc) (*Log, RecoveryStats, error) {
	var stats RecoveryStats
	lr := &logReader{f: logFile}
	head, err := lr.upTo(headerSize)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: reading log: %w", err)
	}
	pageSize, base, ok := decodeHeader(head)
	if !ok {
		// A torn header can only result from a crash during Reset, at
		// which point the previous generation was fully checkpointed:
		// the page file is self-consistent and the log
		// carries nothing to replay.
		all, err := lr.upTo(math.MaxInt64)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: reading log: %w", err)
		}
		stats.TornBytes = int64(len(all))
		l, err := Create(logFile, fallbackPageSize, fallbackBase)
		return l, stats, err
	}

	sc, err := scanLog(lr, pageSize, base)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: reading log: %w", err)
	}
	recs := sc.recs
	logEnd := headerSize + sc.commitEnd
	stats.RecordsScanned = len(recs)
	stats.TornBytes = sc.tornBytes
	stats.Replayed = len(recs) > 0
	if sc.lastCkpt >= 0 {
		stats.LastCheckpointLSN = base + LSN(recs[sc.lastCkpt].off)
	}

	// Redo pass: reapply committed page images after the last checkpoint.
	usable := pageSize - store.PageFooterSize
	page := make([]byte, pageSize)
	for _, r := range recs {
		switch r.typ {
		case recCommit:
			stats.Commits++
		case recCheckpoint:
			stats.Checkpoints++
		}
	}
	for _, r := range recs[sc.afterCkpt:] {
		if r.typ != recPage {
			continue
		}
		recLSN := base + LSN(r.off)
		diskLSN := LSN(0)
		off := int64(r.pageID) * int64(pageSize)
		if n, err := dbFile.ReadAt(page, off); err == nil && n == pageSize {
			if lsn, ok := store.CheckPageFooter(page); ok {
				diskLSN = LSN(lsn)
			}
		}
		if recLSN <= diskLSN {
			stats.PagesSkipped++
			continue
		}
		copy(page, r.payload)
		for i := usable; i < pageSize; i++ {
			page[i] = 0
		}
		store.StampPageFooter(page, uint64(recLSN))
		if _, err := dbFile.WriteAt(page, off); err != nil {
			return nil, stats, fmt.Errorf("wal: replaying page %d: %w", r.pageID, err)
		}
		stats.PagesApplied++
	}
	if stats.PagesApplied > 0 {
		if err := dbFile.Sync(); err != nil {
			return nil, stats, fmt.Errorf("wal: syncing page file after replay: %w", err)
		}
	}

	// Deliver committed app records, oldest first.
	for _, r := range recs {
		if r.typ != recApp {
			continue
		}
		if onApp != nil {
			if err := onApp(base+LSN(r.off), r.kind, r.payload); err != nil {
				return nil, stats, err
			}
		}
	}

	// Drop this generation's torn/uncommitted tail so new appends start
	// clean.
	alloc := int64(len(lr.data))
	if stats.TornBytes > 0 {
		if err := logFile.Truncate(logEnd); err != nil {
			return nil, stats, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		alloc = logEnd
	}
	l := &Log{f: logFile, pageSize: pageSize, base: base,
		written: logEnd, durable: logEnd, alloc: alloc}
	return l, stats, nil
}
