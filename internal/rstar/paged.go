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
//	offset 8: entries, each 8 bytes (child id or data payload) followed by
//	          the entry's bounds: dim float64 mins and dim float64 maxs —
//	          or, in a point-leaf store's leaves, the dim float64
//	          coordinates of the entry's point alone.
//
// The store's leaf kind is recorded with its dimension in the pager's
// pagedMetaDim root slot: the dimension in the low 32 bits, and
// pagedPointLeaves set for a point-leaf store. A store that records no
// kind (every store written before point leaves existed) has box leaves.
// A reader that predates point leaves compares the whole slot with its
// dimension, so it refuses a point-leaf store instead of misreading it.
const (
	pagedHeader   = 8
	pagedRefBytes = 8
	pagedMetaRoot = 0 // pager root slots used for tree metadata
	pagedMetaInfo = 1 // packed height/size/valid
	pagedMetaDim  = 2 // dimension and leaf kind

	pagedPointLeaves = 1 << 32
)

// pagedCRC is the checksum table for node pages.
var pagedCRC = crc32.MakeTable(crc32.Castagnoli)

// LeafKind is the page form of a PagedStore's leaf entries.
type LeafKind uint8

const (
	// BoxLeaves stores each leaf entry as a rectangle, like inner entries.
	BoxLeaves LeafKind = iota
	// PointLeaves stores each leaf entry as a point, dim floats instead of
	// 2·dim, so a leaf page holds about twice the entries. Every leaf
	// entry's rectangle must be a point (Min == Max bit for bit).
	PointLeaves
)

// PagedStore is a NodeStore backed by a store.BufferPool, making the tree
// disk-resident: each node occupies one page, and tree metadata lives in
// the pager's root slots.
type PagedStore struct {
	pool   *store.BufferPool
	pg     *store.Pager
	dim    int
	points bool // leaf entries are points (PointLeaves)

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
	s := &PagedStore{pool: pool, pg: pg, dim: dim, points: leaves == PointLeaves}
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

// stride is the page size of one entry in a node of the given kind.
func (s *PagedStore) stride(leaf bool) int {
	return pagedRefBytes + 8*s.bounds(leaf)
}

// bounds is the number of float64s in one entry's page form: the point's
// coordinates in a point leaf, the mins and maxs elsewhere.
func (s *PagedStore) bounds(leaf bool) int {
	if leaf && s.points {
		return s.dim
	}
	return 2 * s.dim
}

// hiOffset is where an entry's maxs start among its page-form floats: a
// point's maxs are its mins.
func (s *PagedStore) hiOffset(leaf bool) int {
	return s.bounds(leaf) - s.dim
}

// Leaves reports the store's leaf kind.
func (s *PagedStore) Leaves() LeafKind {
	if s.points {
		return PointLeaves
	}
	return BoxLeaves
}

// Dim implements NodeStore.
func (s *PagedStore) Dim() int { return s.dim }

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
	n, err := s.decode(id, f.Data)
	s.pool.Unpin(f, false)
	return n, err
}

// Put implements NodeStore. In a point-leaf store a leaf entry whose
// rectangle is not a point is an error: its page form has no room for
// the maxs.
func (s *PagedStore) Put(n *Node) error {
	if holds := s.MaxEntries(n.Leaf) + 1; len(n.Entries) > holds {
		return fmt.Errorf("rstar: node %d has %d entries, page holds %d", n.ID, len(n.Entries), holds)
	}
	if n.Leaf && s.points {
		for _, e := range n.Entries {
			for j, lo := range e.Rect.Min {
				if math.Float64bits(lo) != math.Float64bits(e.Rect.Max[j]) {
					return fmt.Errorf("rstar: node %d: entry %d is not a point (dim %d spans [%v, %v]); the store has point leaves",
						n.ID, e.Data, j, lo, e.Rect.Max[j])
				}
			}
		}
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
		if n.Leaf && s.points {
			continue
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
// entry count must fit a page of the node's kind and the stored CRC must
// match the header and the entry area.
func (s *PagedStore) checkPage(id NodeID, buf []byte) (leaf bool, count int, err error) {
	leaf = buf[0]&1 == 1
	count = int(binary.LittleEndian.Uint16(buf[1:]))
	if holds := s.MaxEntries(leaf) + 1; count > holds {
		return false, 0, fmt.Errorf("rstar: page %d claims %d entries, max %d", id, count, holds)
	}
	entryBytes := count * s.stride(leaf)
	sum := crc32.Checksum(buf[:4], pagedCRC)
	sum = crc32.Update(sum, pagedCRC, buf[pagedHeader:pagedHeader+entryBytes])
	if stored := binary.LittleEndian.Uint32(buf[4:]); stored != sum {
		return false, 0, fmt.Errorf("rstar: page %d checksum mismatch (stored %08x, computed %08x): data corruption", id, stored, sum)
	}
	return leaf, count, nil
}

// decode materialises a node from its page. All entries' bounds share one
// backing array, so a node costs three allocations however many entries
// it holds; a point's Min and Max are the same slice. Entry rectangles
// are never written in place (see cloneNode), so the sharing is safe.
func (s *PagedStore) decode(id NodeID, buf []byte) (*Node, error) {
	leaf, count, err := s.checkPage(id, buf)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: id, Leaf: leaf, Entries: make([]Entry, count)}
	stride, floats, hi := s.stride(leaf), s.bounds(leaf), s.hiOffset(leaf)
	all := make([]float64, count*floats)
	for i, off := 0, pagedHeader; i < count; i, off = i+1, off+stride {
		ref := binary.LittleEndian.Uint64(buf[off:])
		b := all[i*floats : (i+1)*floats : (i+1)*floats]
		for j := range b {
			b[j] = rawFloat(buf[off+pagedRefBytes:], j)
		}
		e := Entry{Rect: Rect{Min: b[:s.dim:s.dim], Max: b[hi:]}}
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
// float64 mins, followed by dim maxs from hi on (hi = 0 for a point).
func (s *PagedStore) decodeRect(box []byte, hi int) Rect {
	r := Rect{Min: make([]float64, s.dim), Max: make([]float64, s.dim)}
	for j := 0; j < s.dim; j++ {
		r.Min[j] = rawFloat(box, j)
		r.Max[j] = rawFloat(box, hi+j)
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
	dim, stride := s.dim, s.stride(leaf)
	entries := buf[pagedHeader : pagedHeader+count*stride]
	if leaf {
		// A point leaf's entry is its coordinates alone: the ball test
		// reads them as farPoint reads a point, and the box test reads
		// them as both corners, which is Intersects on a point.
		hi := s.hiOffset(true)
		for ; len(entries) > 0; entries = entries[stride:] {
			box := entries[pagedRefBytes:stride]
			for _, pi := range active {
				p := &probes[pi]
				if (p.Center != nil && p.farPointRaw(box, bounds[pi])) || !intersectsRaw(box, hi, p.Box) {
					continue
				}
				data := int64(binary.LittleEndian.Uint64(entries))
				if d.each == nil {
					d.emit(pi, data)
				} else if !d.each(Entry{Rect: s.decodeRect(box, hi), Data: data}) {
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
