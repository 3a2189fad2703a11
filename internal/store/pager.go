// Package store provides the page-based storage layer the disk-resident
// WALRUS index sits on: a Pager managing fixed-size checksummed pages in a
// single file with a free list, and a BufferPool caching pages in memory
// with LRU eviction and pin/unpin semantics. Together they stand in for
// the storage manager the paper's implementation got from the libgist
// package. The pager cooperates with internal/wal for crash recovery:
// every page carries an LSN+CRC footer (see file.go) and the whole free
// list lives inside the meta page, so a single logged meta-page image
// captures all allocation state.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"walrus/internal/obs"
)

// PageID identifies a page within a Pager's file. Page 0 is the metadata
// page and is never handed out; InvalidPage (0) doubles as the nil value.
type PageID uint32

// InvalidPage is the zero PageID, used as a nil marker.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used when none is specified.
const DefaultPageSize = 4096

// Meta page layout (within the usable area; the footer is at the physical
// end like any other page):
//
//	offset 0:  magic (uint32)
//	offset 4:  version (uint32)
//	offset 8:  physical page size (uint32)
//	offset 12: page count, including the meta page (uint32)
//	offset 16: WAL base LSN fallback (uint64; see SetWALBase)
//	offset 24: free-list length (uint32)
//	offset 28: reserved (uint32)
//	offset 32: 8 client root slots (uint64 each)
//	offset 96: free page ids (uint32 each), newest last
const (
	pagerMagic     = 0x57414C52 // "WALR"
	pagerVersion   = 2
	numRoots       = 8
	metaWALBaseOff = 16
	metaFreeOff    = 96
	minPageSize    = 256
)

// Pager manages fixed-size pages in one file. All methods are safe for
// concurrent use.
type Pager struct {
	mu       sync.Mutex
	f        File
	pageSize int // physical page size; usable is pageSize - PageFooterSize
	usable   int
	nPages   uint32 // includes the meta page
	free     []PageID
	freeCap  int
	roots    [numRoots]uint64
	walBase  uint64

	metaDirty bool
	metaVer   uint64       // bumped on every meta mutation; see MetaVersion
	metaLSN   uint64       // stamped into the meta page footer on write-back
	om        pagerMetrics // guarded by mu; zero value = observability off
	scratch   []byte       // one physical page, reused under mu
}

// CreateFile initializes a new page file on an already-open File.
func CreateFile(f File, pageSize int) (*Pager, error) {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < minPageSize {
		return nil, fmt.Errorf("store: page size %d below minimum %d", pageSize, minPageSize)
	}
	p := &Pager{f: f, pageSize: pageSize, nPages: 1, metaDirty: true}
	p.initDerived()
	if err := p.writeMeta(); err != nil {
		return nil, err
	}
	return p, nil
}

// OpenFile opens an existing page file on an already-open File.
func OpenFile(f File) (*Pager, error) {
	head := make([]byte, 12)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("store: reading meta page: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != pagerMagic {
		return nil, fmt.Errorf("store: not a WALRUS page file")
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != pagerVersion {
		return nil, fmt.Errorf("store: unsupported page file version %d", v)
	}
	pageSize := int(binary.LittleEndian.Uint32(head[8:]))
	if pageSize < minPageSize || pageSize > 1<<24 {
		return nil, fmt.Errorf("store: corrupt page size %d", pageSize)
	}
	page := make([]byte, pageSize)
	if _, err := f.ReadAt(page, 0); err != nil {
		return nil, fmt.Errorf("store: reading meta page: %w", err)
	}
	lsn, ok := CheckPageFooter(page)
	if !ok {
		return nil, fmt.Errorf("store: meta page checksum mismatch (torn write?): run recovery or rebuild")
	}
	p := &Pager{f: f, pageSize: pageSize, metaLSN: lsn}
	p.initDerived()
	p.nPages = binary.LittleEndian.Uint32(page[12:])
	p.walBase = binary.LittleEndian.Uint64(page[metaWALBaseOff:])
	nFree := int(binary.LittleEndian.Uint32(page[24:]))
	if nFree > p.freeCap {
		return nil, fmt.Errorf("store: corrupt free list length %d", nFree)
	}
	for i := 0; i < numRoots; i++ {
		p.roots[i] = binary.LittleEndian.Uint64(page[32+8*i:])
	}
	p.free = make([]PageID, nFree)
	for i := 0; i < nFree; i++ {
		p.free[i] = PageID(binary.LittleEndian.Uint32(page[metaFreeOff+4*i:]))
	}
	return p, nil
}

func (p *Pager) initDerived() {
	p.usable = p.pageSize - PageFooterSize
	p.freeCap = (p.usable - metaFreeOff) / 4
	p.scratch = make([]byte, p.pageSize)
}

// PageSize returns the usable page size in bytes — what ReadPage and
// WritePage buffers must measure. The physical page on disk additionally
// carries the PageFooterSize LSN+checksum footer.
func (p *Pager) PageSize() int { return p.usable }

// PhysicalPageSize returns the on-disk page size including the footer.
func (p *Pager) PhysicalPageSize() int { return p.pageSize }

// Root returns user root slot i (0..7); the pager persists these opaque
// values so clients can find their data structures after reopening.
func (p *Pager) Root(i int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.roots[i]
}

// SetRoot assigns user root slot i.
func (p *Pager) SetRoot(i int, v uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.roots[i] != v {
		p.roots[i] = v
		p.touchMeta()
	}
}

// SetWALBase records the WAL base LSN that a fresh log generation will
// start from. It is written (and synced) before the WAL is truncated at a
// checkpoint, so recovery can rebuild a usable log header even if the
// truncation itself was torn by a crash.
func (p *Pager) SetWALBase(v uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.walBase != v {
		p.walBase = v
		p.touchMeta()
	}
}

// MetaVersion returns a counter bumped on every meta mutation (root
// updates, allocation, free). The WAL commit path compares it against the
// last logged version to decide whether to re-log the meta page image.
func (p *Pager) MetaVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metaVer
}

// SetMetaLSN records the WAL position of the last logged meta page image;
// it is stamped into the meta page footer on the next write-back.
func (p *Pager) SetMetaLSN(lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.metaLSN = lsn
}

// MetaImage returns the current meta page contents (usable bytes), the
// image the WAL logs so recovery can restore allocation state.
func (p *Pager) MetaImage() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	buf := make([]byte, p.usable)
	p.encodeMeta(buf)
	return buf
}

// touchMeta marks the meta page dirty. Caller holds mu.
func (p *Pager) touchMeta() {
	p.metaDirty = true
	p.metaVer++
}

// encodeMeta serializes the meta page into buf (usable bytes). Caller
// holds mu.
func (p *Pager) encodeMeta(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], pagerMagic)
	binary.LittleEndian.PutUint32(buf[4:], pagerVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(p.pageSize))
	binary.LittleEndian.PutUint32(buf[12:], p.nPages)
	binary.LittleEndian.PutUint64(buf[metaWALBaseOff:], p.walBase)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(p.free)))
	binary.LittleEndian.PutUint32(buf[28:], 0)
	for i := 0; i < numRoots; i++ {
		binary.LittleEndian.PutUint64(buf[32+8*i:], p.roots[i])
	}
	for i, id := range p.free {
		binary.LittleEndian.PutUint32(buf[metaFreeOff+4*i:], uint32(id))
	}
	for i := metaFreeOff + 4*len(p.free); i < len(buf); i++ {
		buf[i] = 0
	}
}

// writeMeta flushes the metadata page. Caller must hold mu or have
// exclusive access.
func (p *Pager) writeMeta() error {
	p.encodeMeta(p.scratch[:p.usable])
	if err := p.writePhysicalLocked(0, p.scratch[:p.usable], p.metaLSN); err != nil {
		return fmt.Errorf("store: writing meta page: %w", err)
	}
	p.metaDirty = false
	return nil
}

// writePhysicalLocked frames usable-size data with the LSN+CRC footer and
// writes the physical page. Caller holds mu. data may alias scratch.
func (p *Pager) writePhysicalLocked(id PageID, data []byte, lsn uint64) error {
	var start time.Time
	if p.om.reg != nil {
		start = obs.Clock()
	}
	if &data[0] != &p.scratch[0] {
		copy(p.scratch, data)
	}
	StampPageFooter(p.scratch, lsn)
	if _, err := p.f.WriteAt(p.scratch, p.offset(id)); err != nil {
		return fmt.Errorf("store: writing page %d: %w", id, err)
	}
	if p.om.reg != nil {
		d := obs.Since(start)
		p.om.writes.Inc()
		p.om.writeSeconds.Observe(d.Seconds())
		p.om.reg.RecordSpan("pager.write", 0, start, d, obs.Attr{Key: "page", Value: int64(id)})
	}
	return nil
}

// Alloc returns a fresh page, reusing freed pages when available. The
// page's previous contents are undefined.
func (p *Pager) Alloc() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		p.touchMeta()
		return id, nil
	}
	id := PageID(p.nPages)
	// Extend the file with a zero page (valid footer, LSN 0) so ReadPage
	// on the new page succeeds immediately.
	for i := range p.scratch {
		p.scratch[i] = 0
	}
	if err := p.writePhysicalLocked(id, p.scratch[:p.usable], 0); err != nil {
		return InvalidPage, fmt.Errorf("store: extending file for page %d: %w", id, err)
	}
	p.nPages++
	p.touchMeta()
	return id, nil
}

// Free returns a page to the free list. The free list lives entirely in
// the meta page; if it is full the page is leaked until the file is
// rebuilt, which keeps every allocation state change recoverable from a
// single logged meta page image.
func (p *Pager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id); err != nil {
		return err
	}
	if len(p.free) >= p.freeCap {
		return nil
	}
	p.free = append(p.free, id)
	p.touchMeta()
	return nil
}

// ReadPage fills buf (which must be exactly PageSize long) with page id,
// verifies the page checksum, and returns the page's LSN.
func (p *Pager) ReadPage(id PageID, buf []byte) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id); err != nil {
		return 0, err
	}
	if len(buf) != p.usable {
		return 0, fmt.Errorf("store: buffer is %d bytes, page size is %d", len(buf), p.usable)
	}
	var start time.Time
	if p.om.reg != nil {
		start = obs.Clock()
	}
	if _, err := p.f.ReadAt(p.scratch, p.offset(id)); err != nil && err != io.EOF {
		return 0, fmt.Errorf("store: reading page %d: %w", id, err)
	}
	lsn, ok := CheckPageFooter(p.scratch)
	if !ok {
		return 0, fmt.Errorf("store: page %d checksum mismatch: data corruption or torn write", id)
	}
	copy(buf, p.scratch[:p.usable])
	if p.om.reg != nil {
		d := obs.Since(start)
		p.om.reads.Inc()
		p.om.readSeconds.Observe(d.Seconds())
		p.om.reg.RecordSpan("pager.read", 0, start, d, obs.Attr{Key: "page", Value: int64(id)})
	}
	return lsn, nil
}

// WritePage writes buf (exactly PageSize long) to page id, stamping lsn
// into the page footer. Pass 0 when the page is not WAL-logged.
func (p *Pager) WritePage(id PageID, buf []byte, lsn uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id); err != nil {
		return err
	}
	if len(buf) != p.usable {
		return fmt.Errorf("store: buffer is %d bytes, page size is %d", len(buf), p.usable)
	}
	return p.writePhysicalLocked(id, buf, lsn)
}

func (p *Pager) check(id PageID) error {
	if id == InvalidPage || uint32(id) >= p.nPages {
		return fmt.Errorf("store: page %d out of range (file has %d pages)", id, p.nPages)
	}
	return nil
}

func (p *Pager) offset(id PageID) int64 { return int64(id) * int64(p.pageSize) }

// Sync flushes metadata and file contents to stable storage.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.metaDirty {
		if err := p.writeMeta(); err != nil {
			return err
		}
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	p.om.syncs.Inc()
	return nil
}

// Close syncs and closes the file.
func (p *Pager) Close() error {
	if err := p.Sync(); err != nil {
		return errors.Join(err, p.f.Close())
	}
	return p.f.Close()
}
