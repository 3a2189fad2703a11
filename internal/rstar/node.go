package rstar

import "fmt"

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
// stores more than that. Get may return a shared or fresh copy; the tree
// always calls Put after mutating a node, and never mutates a node object
// again after Put without re-fetching it — VersionedStore's zero-copy
// pre-image capture relies on stored node objects staying stable.
type NodeStore interface {
	// Dim is the dimensionality of all rectangles in the store.
	Dim() int
	// MaxEntries is M, the capacity of a leaf (leaf true) or an inner
	// node. A store whose leaf entries are smaller than its inner ones
	// (PagedStore's point leaves) packs more of them per node.
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

// MemStore is an in-memory NodeStore.
type MemStore struct {
	dim    int
	max    int
	nodes  map[NodeID]*Node
	nextID NodeID
	meta   Meta
}

// NewMemStore creates an in-memory store for dim-dimensional rectangles
// with node capacity maxEntries (minimum 4).
func NewMemStore(dim, maxEntries int) (*MemStore, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	if maxEntries < 4 {
		return nil, fmt.Errorf("rstar: node capacity %d < 4", maxEntries)
	}
	return &MemStore{dim: dim, max: maxEntries, nodes: make(map[NodeID]*Node), nextID: 1}, nil
}

// Dim implements NodeStore.
func (s *MemStore) Dim() int { return s.dim }

// MaxEntries implements NodeStore: one capacity for both node kinds.
func (s *MemStore) MaxEntries(bool) int { return s.max }

// New implements NodeStore.
func (s *MemStore) New(leaf bool) (*Node, error) {
	n := &Node{ID: s.nextID, Leaf: leaf}
	s.nextID++
	s.nodes[n.ID] = n
	return n, nil
}

// Get implements NodeStore.
func (s *MemStore) Get(id NodeID) (*Node, error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("rstar: node %d not found", id)
	}
	return n, nil
}

// Put implements NodeStore. For the memory store nodes are shared, so this
// just validates the node is known.
func (s *MemStore) Put(n *Node) error {
	if _, ok := s.nodes[n.ID]; !ok {
		return fmt.Errorf("rstar: Put of unknown node %d", n.ID)
	}
	s.nodes[n.ID] = n
	return nil
}

// Free implements NodeStore.
func (s *MemStore) Free(id NodeID) error {
	if _, ok := s.nodes[id]; !ok {
		return fmt.Errorf("rstar: Free of unknown node %d", id)
	}
	delete(s.nodes, id)
	return nil
}

// Meta implements NodeStore.
func (s *MemStore) Meta() (Meta, error) { return s.meta, nil }

// SetMeta implements NodeStore.
func (s *MemStore) SetMeta(m Meta) error {
	s.meta = m
	return nil
}

// NumNodes reports how many nodes are live (handy in tests).
func (s *MemStore) NumNodes() int { return len(s.nodes) }
