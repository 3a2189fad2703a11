package rstar

import (
	"bytes"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node within a NodeStore. 0 is the nil node.
type NodeID uint64

// InvalidNode is the nil NodeID.
const InvalidNode NodeID = 0

// Entry is one slot of a node: in internal nodes Child points to the
// subtree covered by Rect; in leaves Data carries the caller's payload id.
type Entry struct {
	Rect  Rect
	Child NodeID
	Data  int64
}

// Node is an R*-tree node. Nodes are value-ish: mutate Entries and Put the
// node back to the store.
type Node struct {
	ID      NodeID
	Leaf    bool
	Entries []Entry
}

// mbr returns the bounding rectangle of all entries in fresh bounds.
func (n *Node) mbr() Rect {
	r := n.Entries[0].Rect.Clone()
	for _, e := range n.Entries[1:] {
		r.extend(e.Rect)
	}
	return r
}

// setMBR overwrites r's bounds with the bounding rectangle of entries,
// folding them in the order mbr does, without allocating.
func (r Rect) setMBR(entries []Entry) {
	copy(r.Min, entries[0].Rect.Min)
	copy(r.Max, entries[0].Rect.Max)
	for _, e := range entries[1:] {
		r.extend(e.Rect)
	}
}

// Meta is the tree-level metadata a NodeStore persists so a tree can be
// reloaded.
type Meta struct {
	Root   NodeID
	Height int // number of levels; 1 = root is a leaf
	Size   int // number of data entries
	Valid  bool
}

// NodeStore abstracts node persistence. Implementations must support at
// least MaxEntries(leaf) entries per node of each kind; the tree never
// stores more than that. Every store keeps its nodes as pages in the
// layout of page.go, which the descent scans in place. Get decodes a Node
// (a MemStore may hand back the one an earlier Get decoded), and the tree
// calls Put, which encodes it, after every mutation of a node it fetched.
// MemStore and PagedStore are the two implementations, and a
// VersionedStore wraps either.
type NodeStore interface {
	// Dim is the dimensionality of all rectangles in the store.
	Dim() int
	// MaxEntries is M, the capacity of a leaf (leaf true) or an inner
	// node. A store whose leaf entries are smaller than its inner ones
	// (a PagedStore with point leaves) packs more of them per node.
	MaxEntries(leaf bool) int
	// New allocates an empty node.
	New(leaf bool) (*Node, error)
	// Get fetches a node by id.
	Get(id NodeID) (*Node, error)
	// Put persists a node's current state.
	Put(n *Node) error
	// Free releases a node.
	Free(id NodeID) error
	// Meta returns the stored tree metadata.
	Meta() (Meta, error)
	// SetMeta persists tree metadata.
	SetMeta(m Meta) error
}

// MemStore is an in-memory NodeStore. Each node is an immutable byte
// slice in the page layout, sized exactly to its entries: Put encodes into
// a fresh slice and replaces the old one, so a VersionedStore captures a
// pre-image by keeping the old slice. Node ids are never reused.
type MemStore struct {
	layout
	max     int
	pages   [][]byte // pages[id]; nil once freed (and for InvalidNode)
	meta    Meta
	scratch []byte // Put's encoding, before it is known to differ
	// recent holds the nodes Get decoded, direct-mapped by id: every insert
	// descends from the root, so the upper levels come back without a
	// decode.
	recent [64]*Node
}

// NewMemStore creates an in-memory store for dim-dimensional rectangles
// with node capacity maxEntries (minimum 4) for both node kinds. Leaves
// hold boxes unless leaves is given as PointLeaves.
func NewMemStore(dim, maxEntries int, leaves ...LeafKind) (*MemStore, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	if maxEntries < 4 || maxEntries >= math.MaxUint16 {
		return nil, fmt.Errorf("rstar: node capacity %d outside [4, %d)", maxEntries, math.MaxUint16)
	}
	points := len(leaves) > 0 && leaves[0] == PointLeaves
	return &MemStore{layout: layout{dim: dim, points: points}, max: maxEntries, pages: make([][]byte, 1)}, nil
}

// MaxEntries implements NodeStore: one capacity for both node kinds.
func (s *MemStore) MaxEntries(bool) int { return s.max }

// New implements NodeStore.
func (s *MemStore) New(leaf bool) (*Node, error) {
	n := &Node{ID: NodeID(len(s.pages)), Leaf: leaf}
	page := make([]byte, pagedHeader)
	s.encode(n, page)
	s.pages = append(s.pages, page)
	return n, nil
}

// page returns node id's page. The slice is never written again, so a
// caller may keep it.
func (s *MemStore) page(id NodeID) ([]byte, error) {
	if id >= NodeID(len(s.pages)) || s.pages[id] == nil {
		return nil, fmt.Errorf("rstar: node %d not found", id)
	}
	return s.pages[id], nil
}

// Get implements NodeStore: the node decoded from its page, or the object
// an earlier Get returned if it is still current. Get is a writer-side
// call: it updates the cache.
func (s *MemStore) Get(id NodeID) (*Node, error) {
	page, err := s.page(id)
	if err != nil {
		return nil, err
	}
	slot := &s.recent[id%NodeID(len(s.recent))]
	if *slot == nil || (*slot).ID != id {
		*slot = s.decode(id, page)
	}
	return *slot, nil
}

// Put implements NodeStore: the node is encoded into a fresh page that
// replaces the old one. In a point-leaf store a leaf entry whose rectangle
// is not a point is an error (see layout.check).
func (s *MemStore) Put(n *Node) error {
	// The cache slot keeps n only once its page holds n, and never another
	// object for the id.
	slot := &s.recent[n.ID%NodeID(len(s.recent))]
	cached := *slot == n
	if *slot != nil && (*slot).ID == n.ID {
		*slot = nil
	}
	if _, err := s.page(n.ID); err != nil {
		return err
	}
	if err := s.check(n, s.max+1); err != nil {
		return err
	}
	size := pagedHeader + len(n.Entries)*s.stride(n.Leaf)
	s.scratch = slices.Grow(s.scratch[:0], size)[:size]
	s.encode(n, s.scratch)
	if !bytes.Equal(s.scratch, s.pages[n.ID]) {
		s.pages[n.ID] = append([]byte(nil), s.scratch...)
	}
	if cached {
		*slot = n
	}
	return nil
}

// Free implements NodeStore.
func (s *MemStore) Free(id NodeID) error {
	if _, err := s.page(id); err != nil {
		return err
	}
	s.pages[id] = nil
	return nil
}

// Meta implements NodeStore.
func (s *MemStore) Meta() (Meta, error) { return s.meta, nil }

// SetMeta implements NodeStore.
func (s *MemStore) SetMeta(m Meta) error {
	s.meta = m
	return nil
}
