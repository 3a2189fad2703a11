package rstar

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Page layout of a serialized node, the one node representation every
// store keeps (MemStore and overlay pre-images as exact-size byte slices,
// PagedStore as one page of its file):
//
//	offset 0: flags (byte; bit 0 = leaf)
//	offset 1: entry count (uint16, little endian)
//	offset 3: reserved byte
//	offset 4: CRC32 (Castagnoli) of bytes [0,4) and the entry area
//	offset 8: entries, each 8 bytes (child id or data payload) followed by
//	          the entry's bounds: dim float64 mins and dim float64 maxs —
//	          or, in a point-leaf store's leaves, the dim float64
//	          coordinates of the entry's point alone.
const (
	pagedHeader   = 8
	pagedRefBytes = 8
)

// pagedCRC is the checksum table for node pages.
var pagedCRC = crc32.MakeTable(crc32.Castagnoli)

// LeafKind is the page form of a store's leaf entries.
type LeafKind uint8

const (
	// BoxLeaves stores each leaf entry as a rectangle, like inner entries.
	BoxLeaves LeafKind = iota
	// PointLeaves stores each leaf entry as a point, dim floats instead of
	// 2·dim, so a leaf page holds about twice the entries. Every leaf
	// entry's rectangle must be a point (Min == Max bit for bit).
	PointLeaves
)

// layout is the page codec of a store: the dimension and whether leaf
// entries are points. MemStore and PagedStore embed it, and a
// VersionedStore holds its base's to read overlay pages.
type layout struct {
	dim    int
	points bool // leaf entries are points (PointLeaves)
}

// Leaves reports the store's leaf kind.
func (l layout) Leaves() LeafKind {
	if l.points {
		return PointLeaves
	}
	return BoxLeaves
}

// Dim implements NodeStore.
func (l layout) Dim() int { return l.dim }

// stride is the page size of one entry in a node of the given kind.
func (l layout) stride(leaf bool) int {
	return pagedRefBytes + 8*l.bounds(leaf)
}

// bounds is the number of float64s in one entry's page form: the point's
// coordinates in a point leaf, the mins and maxs elsewhere.
func (l layout) bounds(leaf bool) int {
	if leaf && l.points {
		return l.dim
	}
	return 2 * l.dim
}

// hiOffset is where an entry's maxs start among its page-form floats: a
// point's maxs are its mins.
func (l layout) hiOffset(leaf bool) int {
	return l.bounds(leaf) - l.dim
}

// check reports whether n fits a page of the layout holding at most holds
// entries. In a point-leaf layout a leaf entry whose rectangle is not a
// point is an error: its page form has no room for the maxs.
func (l layout) check(n *Node, holds int) error {
	if len(n.Entries) > holds {
		return fmt.Errorf("rstar: node %d has %d entries, page holds %d", n.ID, len(n.Entries), holds)
	}
	if !n.Leaf || !l.points {
		return nil
	}
	for _, e := range n.Entries {
		for j, lo := range e.Rect.Min {
			if math.Float64bits(lo) != math.Float64bits(e.Rect.Max[j]) {
				return fmt.Errorf("rstar: node %d: entry %d is not a point (dim %d spans [%v, %v]); the store has point leaves",
					n.ID, e.Data, j, lo, e.Rect.Max[j])
			}
		}
	}
	return nil
}

// encode writes n's page form into buf, which must hold its header and
// entries.
func (l layout) encode(n *Node, buf []byte) {
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
		if n.Leaf && l.points {
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

// pageHeader reads a page's leaf flag and entry count.
func pageHeader(buf []byte) (leaf bool, count int) {
	return buf[0]&1 == 1, int(binary.LittleEndian.Uint16(buf[1:]))
}

// decode materialises a node from its page, which the caller has checked
// or trusts. All entries' bounds share one backing array, so a node costs
// three allocations however many entries it holds; a point's Min and Max
// are the same slice. Entry rectangles are never written in place, so the
// sharing is safe. The entry slice has room for the one entry an insert
// appends before overflow treatment.
func (l layout) decode(id NodeID, buf []byte) *Node {
	leaf, count := pageHeader(buf)
	n := &Node{ID: id, Leaf: leaf, Entries: make([]Entry, count, count+1)}
	stride, floats, hi := l.stride(leaf), l.bounds(leaf), l.hiOffset(leaf)
	all := make([]float64, count*floats)
	entries := buf[pagedHeader : pagedHeader+count*stride]
	for i := range n.Entries {
		ref := binary.LittleEndian.Uint64(entries)
		b := all[:floats:floats]
		for j, src := 0, entries[pagedRefBytes:stride]; j < len(b) && len(src) >= 8; j, src = j+1, src[8:] {
			b[j] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		}
		e := &n.Entries[i]
		e.Rect = Rect{Min: b[:l.dim:l.dim], Max: b[hi:]}
		if leaf {
			e.Data = int64(ref)
		} else {
			e.Child = NodeID(ref)
		}
		all, entries = all[floats:], entries[stride:]
	}
	return n
}

// decodeRect materialises an entry rectangle from its page form: dim
// float64 mins, followed by dim maxs from hi on (hi = 0 for a point, whose
// Min and Max then share one slice, as decode's do).
func (l layout) decodeRect(box []byte, hi int) Rect {
	b := make([]float64, hi+l.dim)
	for j := range b {
		b[j], box = leFloat(box), box[8:]
	}
	return Rect{Min: b[:l.dim:l.dim], Max: b[hi:]}
}

// leFloat reads the float64 at the start of b, in page byte order. The
// kernels walk an entry by reslicing past each float they read, which
// leaves one bounds check per float.
func leFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
