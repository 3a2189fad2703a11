package rstar

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"walrus/internal/store"
)

// A PagedStore keeps each node in one page of its file, in the layout of
// page.go. The store's leaf kind is recorded with its dimension in the
// pager's pagedMetaDim root slot: the dimension in the low 32 bits, and
// pagedPointLeaves set for a point-leaf store. A store that records no
// kind (every store written before point leaves existed) has box leaves.
// A reader that predates point leaves compares the whole slot with its
// dimension, so it refuses a point-leaf store instead of misreading it.
const (
	pagedMetaRoot = 0 // pager root slots used for tree metadata
	pagedMetaInfo = 1 // packed height/size/valid
	pagedMetaDim  = 2 // dimension and leaf kind

	pagedPointLeaves = 1 << 32
)

// PagedStore is a NodeStore backed by a store.BufferPool, making the tree
// disk-resident: each node occupies one page, and tree metadata lives in
// the pager's root slots.
type PagedStore struct {
	layout
	pool *store.BufferPool
	pg   *store.Pager

	leafMax, innerMax int // MaxEntries per node kind
}

// NewPagedStore creates a paged node store for dim-dimensional rectangles.
// A fresh page file gets leaves of the given kind; a page file that
// already holds a store keeps the kind it records, except that a
// point-leaf store is refused when BoxLeaves is asked for, since that
// caller may store real boxes. The node capacities are derived from the
// page size; an error is returned if a page cannot hold at least 4
// entries.
func NewPagedStore(pg *store.Pager, pool *store.BufferPool, dim int, leaves LeafKind) (*PagedStore, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	s := &PagedStore{layout: layout{dim: dim, points: leaves == PointLeaves}, pool: pool, pg: pg}
	if stored := pg.Root(pagedMetaDim); stored != 0 {
		if stored&^pagedPointLeaves != uint64(dim) {
			return nil, fmt.Errorf("rstar: store was created with dimension %d, not %d", stored&^pagedPointLeaves, dim)
		}
		recorded := stored&pagedPointLeaves != 0
		if recorded && !s.points {
			return nil, fmt.Errorf("rstar: store has point leaves; a box-leaf store was expected")
		}
		s.points = recorded
	}
	// Reserve one slot beyond MaxEntries: the tree transiently persists a
	// node holding M+1 entries before overflow treatment runs.
	s.leafMax = (pg.PageSize()-pagedHeader)/s.stride(true) - 1
	s.innerMax = (pg.PageSize()-pagedHeader)/s.stride(false) - 1
	if s.innerMax < 4 {
		return nil, fmt.Errorf("rstar: page size %d holds only %d %d-dimensional entries; need >= 4",
			pg.PageSize(), s.innerMax, dim)
	}
	meta := uint64(dim)
	if s.points {
		meta |= pagedPointLeaves
	}
	pg.SetRoot(pagedMetaDim, meta)
	return s, nil
}

// MaxEntries implements NodeStore.
func (s *PagedStore) MaxEntries(leaf bool) int {
	if leaf {
		return s.leafMax
	}
	return s.innerMax
}

// New implements NodeStore.
func (s *PagedStore) New(leaf bool) (*Node, error) {
	f, err := s.pool.NewPage()
	if err != nil {
		return nil, err
	}
	n := &Node{ID: NodeID(f.ID), Leaf: leaf}
	s.encode(n, f.Data)
	s.pool.Unpin(f, true)
	return n, nil
}

// Get implements NodeStore.
func (s *PagedStore) Get(id NodeID) (*Node, error) {
	f, err := s.pool.Get(store.PageID(id))
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(f, false)
	page, err := s.checkPage(id, f)
	if err != nil {
		return nil, err
	}
	return s.decode(id, page), nil
}

// Put implements NodeStore. In a point-leaf store a leaf entry whose
// rectangle is not a point is an error (see layout.check).
func (s *PagedStore) Put(n *Node) error {
	if err := s.check(n, s.MaxEntries(n.Leaf)+1); err != nil {
		return err
	}
	f, err := s.pool.Get(store.PageID(n.ID))
	if err != nil {
		return err
	}
	s.encode(n, f.Data)
	s.pool.Unpin(f, true)
	return nil
}

// Free implements NodeStore.
func (s *PagedStore) Free(id NodeID) error {
	return s.pool.Discard(store.PageID(id))
}

// Meta implements NodeStore.
func (s *PagedStore) Meta() (Meta, error) {
	info := s.pg.Root(pagedMetaInfo)
	m := Meta{
		Root:   NodeID(s.pg.Root(pagedMetaRoot)),
		Height: int(info >> 33),
		Size:   int((info >> 1) & 0xFFFFFFFF),
		Valid:  info&1 == 1,
	}
	return m, nil
}

// SetMeta implements NodeStore.
func (s *PagedStore) SetMeta(m Meta) error {
	if m.Height < 0 || m.Size < 0 || m.Size > math.MaxUint32 {
		return fmt.Errorf("rstar: metadata out of range: %+v", m)
	}
	s.pg.SetRoot(pagedMetaRoot, uint64(m.Root))
	info := uint64(m.Height)<<33 | uint64(m.Size)<<1
	if m.Valid {
		info |= 1
	}
	s.pg.SetRoot(pagedMetaInfo, info)
	return nil
}

// Flush writes all dirty pages and metadata to disk.
func (s *PagedStore) Flush() error { return s.pool.FlushAll() }

// checkPage validates node id's page on a pinned frame before any entry
// in it is trusted, and returns it trimmed to its header and entries. The
// entry count must fit a page of the node's kind, checked on every call.
// The stored CRC must match the header and the entry area, checked once
// per pool residence: on a frame the pool has not marked Checked, which it
// marks on success. The pool clears the mark when it reads the page from
// disk and when a writer unpins the frame dirty, so every byte a scan
// trusts has passed the CRC since it last changed.
func (s *PagedStore) checkPage(id NodeID, f *store.Frame) ([]byte, error) {
	buf := f.Data
	leaf, count := pageHeader(buf)
	if holds := s.MaxEntries(leaf) + 1; count > holds {
		return nil, fmt.Errorf("rstar: page %d claims %d entries, max %d", id, count, holds)
	}
	buf = buf[:pagedHeader+count*s.stride(leaf)]
	if f.Checked() {
		return buf, nil
	}
	sum := crc32.Update(crc32.Checksum(buf[:4], pagedCRC), pagedCRC, buf[pagedHeader:])
	if stored := binary.LittleEndian.Uint32(buf[4:]); stored != sum {
		return nil, fmt.Errorf("rstar: page %d checksum mismatch (stored %08x, computed %08x): data corruption", id, stored, sum)
	}
	f.MarkChecked()
	return buf, nil
}

// scan runs the scan kernel over node id on its pinned frame's bytes,
// once checkPage has passed. The frame is unpinned before scan returns,
// so the descent holds at most one pin at a time; emit and each run under
// that pin.
func (s *PagedStore) scan(d *descent, id NodeID, lo, hi int) error {
	f, err := s.pool.Get(store.PageID(id))
	if err != nil {
		return err
	}
	defer s.pool.Unpin(f, false)
	page, err := s.checkPage(id, f)
	if err != nil {
		return err
	}
	s.scanPage(d, page, lo, hi)
	return nil
}

// page returns a checked copy of node id's header and entries, for an
// overlay pre-image: the frame itself is rewritten in place.
func (s *PagedStore) page(id NodeID) ([]byte, error) {
	f, err := s.pool.Get(store.PageID(id))
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(f, false)
	page, err := s.checkPage(id, f)
	return append([]byte(nil), page...), err
}
