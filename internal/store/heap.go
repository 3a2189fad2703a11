package store

import (
	"encoding/binary"
	"fmt"
)

// RID identifies a record in a HeapFile: its page and its slot within the
// page's slot directory. RIDs are stable across in-page compaction.
type RID struct {
	Page PageID
	Slot uint16
}

// Pack encodes the RID into a uint64 (handy as an index payload).
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID reverses RID.Pack.
func UnpackRID(v uint64) RID {
	return RID{Page: PageID(v >> 16), Slot: uint16(v & 0xFFFF)}
}

func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", r.Page, r.Slot) }

// Heap page layout:
//
//	offset 0:  next page id (uint32; 0 = end of chain)
//	offset 4:  slot count (uint16)
//	offset 6:  free-space start (uint16; first byte past the record area)
//	offset 8:  record area, growing upward
//	... free space ...
//	page end:  slot directory, growing downward; slot i occupies the 4
//	           bytes at pageSize-4*(i+1): record offset (uint16) and
//	           record length (uint16). Offset 0xFFFF marks a dead slot.
const (
	heapHeader   = 8
	heapSlotSize = 4
	heapDeadSlot = 0xFFFF
)

// HeapFile stores variable-length records in slotted pages chained through
// a pager, the classic database heap-file organization. WALRUS keeps each
// region's serialized payload (signature, bounding box, coverage bitmap)
// here, as the paper stores them "in the index along with the signature"
// (Section 5.4). Not safe for concurrent mutation.
type HeapFile struct {
	pg       *Pager
	pool     *BufferPool
	rootSlot int         // pager root slot holding the first page id; the next one holds the last
	first    PageID      // first page of the chain (0 = empty)
	last     PageID      // last page of the chain, where inserts go
	om       heapMetrics // zero value = observability off
}

// NewHeapFile creates an empty heap file whose first- and last-page
// pointers live in the given pager root slot and the one after it.
// OpenHeapFile reopens it later.
func NewHeapFile(pg *Pager, pool *BufferPool, rootSlot int) (*HeapFile, error) {
	h := &HeapFile{pg: pg, pool: pool, rootSlot: rootSlot}
	pg.SetRoot(rootSlot, 0)
	pg.SetRoot(rootSlot+1, 0)
	return h, nil
}

// OpenHeapFile reopens a heap file previously created with NewHeapFile.
func OpenHeapFile(pg *Pager, pool *BufferPool, rootSlot int) (*HeapFile, error) {
	return &HeapFile{pg: pg, pool: pool, rootSlot: rootSlot,
		first: PageID(pg.Root(rootSlot)), last: PageID(pg.Root(rootSlot + 1))}, nil
}

// MaxRecord returns the largest record this heap can store in one page.
func (h *HeapFile) MaxRecord() int {
	return h.pg.PageSize() - heapHeader - heapSlotSize
}

// Insert appends a record and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > h.MaxRecord() {
		return RID{}, fmt.Errorf("store: record of %d bytes exceeds page capacity %d", len(rec), h.MaxRecord())
	}
	if h.last != 0 {
		if rid, ok, err := h.tryInsert(h.last, rec); err != nil || ok {
			if err == nil {
				h.om.inserts.Inc()
			}
			return rid, err
		}
	}
	// Need a fresh page.
	f, err := h.pool.NewPage()
	if err != nil {
		return RID{}, err
	}
	binary.LittleEndian.PutUint32(f.Data[0:], 0)
	binary.LittleEndian.PutUint16(f.Data[4:], 0)
	binary.LittleEndian.PutUint16(f.Data[6:], heapHeader)
	newID := f.ID
	h.pool.Unpin(f, true)
	if h.last == 0 {
		h.first = newID
		h.pg.SetRoot(h.rootSlot, uint64(newID))
	} else {
		prev, err := h.pool.Get(h.last)
		if err != nil {
			return RID{}, err
		}
		binary.LittleEndian.PutUint32(prev.Data[0:], uint32(newID))
		h.pool.Unpin(prev, true)
	}
	h.last = newID
	h.pg.SetRoot(h.rootSlot+1, uint64(newID))
	rid, ok, err := h.tryInsert(newID, rec)
	if err != nil {
		return RID{}, err
	}
	if !ok {
		return RID{}, fmt.Errorf("store: record of %d bytes does not fit an empty page", len(rec))
	}
	h.om.inserts.Inc()
	return rid, nil
}

// tryInsert attempts to place rec in page id, compacting dead space first
// if that would make it fit.
func (h *HeapFile) tryInsert(id PageID, rec []byte) (RID, bool, error) {
	f, err := h.pool.Get(id)
	if err != nil {
		return RID{}, false, err
	}
	defer func() { h.pool.Unpin(f, true) }()

	ps := h.pg.PageSize()
	slots := int(binary.LittleEndian.Uint16(f.Data[4:]))
	free := int(binary.LittleEndian.Uint16(f.Data[6:]))

	// Look for a reusable dead slot; otherwise we need a new directory
	// entry too.
	slot := -1
	for i := 0; i < slots; i++ {
		off := binary.LittleEndian.Uint16(f.Data[ps-heapSlotSize*(i+1):])
		if off == heapDeadSlot {
			slot = i
			break
		}
	}
	needSlot := 0
	if slot < 0 {
		needSlot = heapSlotSize
	}
	avail := ps - heapSlotSize*slots - needSlot - free
	if avail < len(rec) {
		// Try reclaiming dead space.
		if h.deadBytes(f, slots) >= len(rec)-avail {
			h.compactPage(f, slots)
			free = int(binary.LittleEndian.Uint16(f.Data[6:]))
			avail = ps - heapSlotSize*slots - needSlot - free
		}
		if avail < len(rec) {
			return RID{}, false, nil
		}
	}
	if slot < 0 {
		slot = slots
		binary.LittleEndian.PutUint16(f.Data[4:], uint16(slots+1))
	}
	copy(f.Data[free:], rec)
	dir := ps - heapSlotSize*(slot+1)
	binary.LittleEndian.PutUint16(f.Data[dir:], uint16(free))
	binary.LittleEndian.PutUint16(f.Data[dir+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(f.Data[6:], uint16(free+len(rec)))
	return RID{Page: id, Slot: uint16(slot)}, true, nil
}

// deadBytes sums the record bytes owned by dead slots.
func (h *HeapFile) deadBytes(f *Frame, slots int) int {
	// Dead slots zero their length at delete time, so dead record bytes
	// are whatever the live records do not account for.
	ps := h.pg.PageSize()
	live := 0
	for i := 0; i < slots; i++ {
		dir := ps - heapSlotSize*(i+1)
		if binary.LittleEndian.Uint16(f.Data[dir:]) == heapDeadSlot {
			continue
		}
		live += int(binary.LittleEndian.Uint16(f.Data[dir+2:]))
	}
	free := int(binary.LittleEndian.Uint16(f.Data[6:]))
	return free - heapHeader - live
}

// compactPage rewrites live records contiguously, preserving slot numbers
// (and therefore RIDs).
func (h *HeapFile) compactPage(f *Frame, slots int) {
	ps := h.pg.PageSize()
	buf := make([]byte, 0, ps)
	type rec struct {
		slot, length int
	}
	var live []rec
	for i := 0; i < slots; i++ {
		dir := ps - heapSlotSize*(i+1)
		off := binary.LittleEndian.Uint16(f.Data[dir:])
		if off == heapDeadSlot {
			continue
		}
		length := int(binary.LittleEndian.Uint16(f.Data[dir+2:]))
		buf = append(buf, f.Data[off:int(off)+length]...)
		live = append(live, rec{i, length})
	}
	copy(f.Data[heapHeader:], buf)
	pos := heapHeader
	for _, r := range live {
		dir := ps - heapSlotSize*(r.slot+1)
		binary.LittleEndian.PutUint16(f.Data[dir:], uint16(pos))
		pos += r.length
	}
	binary.LittleEndian.PutUint16(f.Data[6:], uint16(pos))
}

// liveSlot returns the offset of rid's slot directory entry in its page
// f, failing unless the slot holds a live record.
func (h *HeapFile) liveSlot(f *Frame, rid RID) (int, error) {
	slots := int(binary.LittleEndian.Uint16(f.Data[4:]))
	if int(rid.Slot) >= slots {
		return 0, fmt.Errorf("store: %v: slot out of range (%d slots)", rid, slots)
	}
	dir := h.pg.PageSize() - heapSlotSize*(int(rid.Slot)+1)
	if binary.LittleEndian.Uint16(f.Data[dir:]) == heapDeadSlot {
		return 0, fmt.Errorf("store: %v: record deleted", rid)
	}
	return dir, nil
}

// Delete removes the record at rid. Its page space is reclaimed lazily by
// compaction during later inserts.
func (h *HeapFile) Delete(rid RID) error {
	f, err := h.pool.Get(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(f, true)
	dir, err := h.liveSlot(f, rid)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(f.Data[dir:], heapDeadSlot)
	binary.LittleEndian.PutUint16(f.Data[dir+2:], 0)
	h.om.deletes.Inc()
	return nil
}

// Shrink overwrites the record at rid in place with rec, which must be no
// longer than it, keeping the RID. The bytes it gives up are reclaimed by
// compaction, like a deleted record's.
func (h *HeapFile) Shrink(rid RID, rec []byte) error {
	f, err := h.pool.Get(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(f, true)
	dir, err := h.liveSlot(f, rid)
	if err != nil {
		return err
	}
	if length := int(binary.LittleEndian.Uint16(f.Data[dir+2:])); len(rec) > length {
		return fmt.Errorf("store: %v: cannot grow a %d-byte record to %d bytes in place", rid, length, len(rec))
	}
	copy(f.Data[binary.LittleEndian.Uint16(f.Data[dir:]):], rec)
	binary.LittleEndian.PutUint16(f.Data[dir+2:], uint16(len(rec)))
	return nil
}

// Scan calls fn for every live record in chain order, stopping early if fn
// returns false. The record slice is only valid during the call.
func (h *HeapFile) Scan(fn func(RID, []byte) bool) error {
	id := h.first
	for id != 0 {
		f, err := h.pool.Get(id)
		if err != nil {
			return err
		}
		ps := h.pg.PageSize()
		slots := int(binary.LittleEndian.Uint16(f.Data[4:]))
		next := PageID(binary.LittleEndian.Uint32(f.Data[0:]))
		for i := 0; i < slots; i++ {
			dir := ps - heapSlotSize*(i+1)
			off := binary.LittleEndian.Uint16(f.Data[dir:])
			if off == heapDeadSlot {
				continue
			}
			length := int(binary.LittleEndian.Uint16(f.Data[dir+2:]))
			if !fn(RID{Page: id, Slot: uint16(i)}, f.Data[off:int(off)+length]) {
				h.pool.Unpin(f, false)
				return nil
			}
		}
		h.pool.Unpin(f, false)
		id = next
	}
	return nil
}
