package rstar

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"walrus/internal/store"
)

// Page layout of a serialized node:
//
//	offset 0: flags (byte; bit 0 = leaf)
//	offset 1: entry count (uint16, little endian)
//	offset 3: reserved byte
//	offset 4: CRC32 (Castagnoli) of bytes [0,4) and the entry area
//	offset 8: entries, each 8 bytes (child id or data payload)
//	          followed by dim float64 mins and dim float64 maxs.
const (
	pagedHeader   = 8
	pagedRefBytes = 8
	pagedMetaRoot = 0 // pager root slots used for tree metadata
	pagedMetaInfo = 1 // packed height/size/valid
	pagedMetaDim  = 2
)

// pagedCRC is the checksum table for node pages.
var pagedCRC = crc32.MakeTable(crc32.Castagnoli)

// PagedStore is a NodeStore backed by a store.BufferPool, making the tree
// disk-resident: each node occupies one page, and tree metadata lives in
// the pager's root slots.
type PagedStore struct {
	pool *store.BufferPool
	pg   *store.Pager
	dim  int
	max  int
}

// NewPagedStore creates a paged node store for dim-dimensional rectangles.
// The node capacity is derived from the page size; an error is returned if
// a page cannot hold at least 4 entries.
func NewPagedStore(pg *store.Pager, pool *store.BufferPool, dim int) (*PagedStore, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	entryBytes := pagedRefBytes + 16*dim
	// Reserve one slot beyond MaxEntries: the tree transiently persists a
	// node holding M+1 entries before overflow treatment runs.
	max := (pg.PageSize()-pagedHeader)/entryBytes - 1
	if max < 4 {
		return nil, fmt.Errorf("rstar: page size %d holds only %d %d-dimensional entries; need >= 4",
			pg.PageSize(), max, dim)
	}
	if stored := pg.Root(pagedMetaDim); stored != 0 && stored != uint64(dim) {
		return nil, fmt.Errorf("rstar: store was created with dimension %d, not %d", stored, dim)
	}
	pg.SetRoot(pagedMetaDim, uint64(dim))
	return &PagedStore{pool: pool, pg: pg, dim: dim, max: max}, nil
}

// Dim implements NodeStore.
func (s *PagedStore) Dim() int { return s.dim }

// MaxEntries implements NodeStore.
func (s *PagedStore) MaxEntries() int { return s.max }

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
	n, err := s.decode(id, f.Data)
	s.pool.Unpin(f, false)
	return n, err
}

// Put implements NodeStore.
func (s *PagedStore) Put(n *Node) error {
	if len(n.Entries) > s.max+1 {
		return fmt.Errorf("rstar: node %d has %d entries, page holds %d", n.ID, len(n.Entries), s.max+1)
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

func (s *PagedStore) encode(n *Node, buf []byte) {
	if n.Leaf {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.Entries)))
	buf[3] = 0
	off := pagedHeader
	for _, e := range n.Entries {
		ref := uint64(e.Data)
		if !n.Leaf {
			ref = uint64(e.Child)
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
		off += 8
		for _, v := range e.Rect.Min {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
		for _, v := range e.Rect.Max {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	sum := crc32.Checksum(buf[:4], pagedCRC)
	sum = crc32.Update(sum, pagedCRC, buf[pagedHeader:off])
	binary.LittleEndian.PutUint32(buf[4:], sum)
}

// checkPage validates a node page before any entry in it is trusted: the
// entry count must fit the page and the stored CRC must match the header
// and the entry area.
func (s *PagedStore) checkPage(id NodeID, buf []byte) (leaf bool, count int, err error) {
	count = int(binary.LittleEndian.Uint16(buf[1:]))
	if count > s.max+1 {
		return false, 0, fmt.Errorf("rstar: page %d claims %d entries, max %d", id, count, s.max+1)
	}
	entryBytes := count * (pagedRefBytes + 16*s.dim)
	sum := crc32.Checksum(buf[:4], pagedCRC)
	sum = crc32.Update(sum, pagedCRC, buf[pagedHeader:pagedHeader+entryBytes])
	if stored := binary.LittleEndian.Uint32(buf[4:]); stored != sum {
		return false, 0, fmt.Errorf("rstar: page %d checksum mismatch (stored %08x, computed %08x): data corruption", id, stored, sum)
	}
	return buf[0]&1 == 1, count, nil
}

func (s *PagedStore) decode(id NodeID, buf []byte) (*Node, error) {
	leaf, count, err := s.checkPage(id, buf)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: id, Leaf: leaf, Entries: make([]Entry, count)}
	stride := pagedRefBytes + 16*s.dim
	for i, off := 0, pagedHeader; i < count; i, off = i+1, off+stride {
		ref := binary.LittleEndian.Uint64(buf[off:])
		e := Entry{Rect: s.decodeRect(buf[off+pagedRefBytes : off+stride])}
		if leaf {
			e.Data = int64(ref)
		} else {
			e.Child = NodeID(ref)
		}
		n.Entries[i] = e
	}
	return n, nil
}

// decodeRect materialises an entry rectangle from its page form: dim
// float64 mins followed by dim maxs.
func (s *PagedStore) decodeRect(box []byte) Rect {
	r := Rect{Min: make([]float64, s.dim), Max: make([]float64, s.dim)}
	for j := 0; j < s.dim; j++ {
		r.Min[j] = rawFloat(box, j)
		r.Max[j] = rawFloat(box, s.dim+j)
	}
	return r
}

// rawFloat reads the i-th float64 of a page-form rectangle.
func rawFloat(box []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(box[8*i:]))
}

// scan runs the descent over node id on its pinned frame's bytes: once
// checkPage has passed, entries are tested where they lie and no Node,
// Entry or Rect is built (the Search wrappers' each callback excepted,
// which needs whole entries for its hits). The frame is unpinned before
// scan returns, so the descent holds at most one pin at a time; emit and
// each run under that pin.
func (s *PagedStore) scan(d *descent, id NodeID, lo, hi int) error {
	f, err := s.pool.Get(store.PageID(id))
	if err != nil {
		return err
	}
	err = s.scanPage(d, id, f.Data, lo, hi)
	s.pool.Unpin(f, false)
	return err
}

// scanPage is descent.scanNode over a serialized node.
func (s *PagedStore) scanPage(d *descent, id NodeID, buf []byte, lo, hi int) error {
	leaf, count, err := s.checkPage(id, buf)
	if err != nil {
		return err
	}
	probes, bounds, active := d.probes, d.bounds, d.active[lo:hi]
	dim, stride := s.dim, pagedRefBytes+16*s.dim
	entries := buf[pagedHeader : pagedHeader+count*stride]
	if leaf {
		for ; len(entries) > 0; entries = entries[stride:] {
			box := entries[pagedRefBytes:stride]
			for _, pi := range active {
				p := &probes[pi]
				if (p.Center != nil && p.farPointRaw(box, bounds[pi])) || !intersectsRaw(box, dim, p.Box) {
					continue
				}
				data := int64(binary.LittleEndian.Uint64(entries))
				if d.each == nil {
					d.emit(pi, data)
				} else if !d.each(Entry{Rect: s.decodeRect(box), Data: data}) {
					d.stopped = true
					return nil
				}
			}
		}
		return nil
	}
	stack, todo := d.active, d.todo
	for ; len(entries) > 0; entries = entries[stride:] {
		box := entries[pagedRefBytes:stride]
		mark := len(stack)
		for _, pi := range active {
			p := &probes[pi]
			if (p.Center == nil || !p.farBoxRaw(box, dim, bounds[pi])) && intersectsRaw(box, dim, p.Box) {
				stack = append(stack, pi)
			}
		}
		if len(stack) > mark {
			child := NodeID(binary.LittleEndian.Uint64(entries))
			todo = append(todo, pending{id: child, lo: int32(mark), hi: int32(len(stack))})
		}
	}
	d.active, d.todo = stack, todo
	return nil
}
