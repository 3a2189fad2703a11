package birch

import (
	"fmt"
	"math"
)

// Params configures a CF-tree.
type Params struct {
	// Threshold is εc, the upper bound on the radius of any leaf cluster.
	Threshold float64
	// Branching is B, the maximum number of entries in a nonleaf node.
	Branching int
	// LeafSize is L, the maximum number of entries in a leaf node.
	LeafSize int
	// Dim is the point dimensionality.
	Dim int
}

// DefaultParams returns the branching factors suggested for in-memory use.
func DefaultParams(dim int, threshold float64) Params {
	return Params{Threshold: threshold, Branching: 8, LeafSize: 8, Dim: dim}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Threshold < 0:
		return fmt.Errorf("birch: negative threshold %v", p.Threshold)
	case p.Branching < 2:
		return fmt.Errorf("birch: branching factor %d < 2", p.Branching)
	case p.LeafSize < 1:
		return fmt.Errorf("birch: leaf size %d < 1", p.LeafSize)
	case p.Dim < 1:
		return fmt.Errorf("birch: dimension %d < 1", p.Dim)
	}
	return nil
}

// entry is one slot in a CF-tree node. Nonleaf entries summarize a child
// node; leaf entries are clusters and carry member ids and the bounding box
// of their member points.
type entry struct {
	cf       CF
	child    *node // nil at leaves
	members  []int
	min, max []float64
}

func (e *entry) absorbEntry(o *entry) {
	e.cf.Merge(&o.cf)
	e.members = append(e.members, o.members...)
	for i := range e.min {
		if o.min[i] < e.min[i] {
			e.min[i] = o.min[i]
		}
		if o.max[i] > e.max[i] {
			e.max[i] = o.max[i]
		}
	}
}

type node struct {
	leaf    bool
	entries []*entry
}

// Tree is a CF-tree. It is not safe for concurrent mutation.
type Tree struct {
	params Params
	root   *node
}

// NewTree creates an empty CF-tree.
func NewTree(params Params) (*Tree, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Tree{params: params, root: &node{leaf: true}}, nil
}

// Insert adds one point with an opaque member id.
func (t *Tree) Insert(p []float64, id int) error {
	if len(p) != t.params.Dim {
		return fmt.Errorf("birch: point has dim %d, tree has %d", len(p), t.params.Dim)
	}
	e := t.newLeafEntry(p, id)
	t.insertEntry(e)
	return nil
}

func (t *Tree) newLeafEntry(p []float64, id int) *entry {
	e := &entry{cf: NewCF(t.params.Dim), min: make([]float64, t.params.Dim), max: make([]float64, t.params.Dim)}
	copy(e.min, p)
	copy(e.max, p)
	e.cf.Add(p)
	e.members = []int{id}
	return e
}

// insertEntry pushes a (possibly multi-point) leaf entry down the tree.
func (t *Tree) insertEntry(e *entry) {
	l, r := t.insertInto(t.root, e)
	if l != nil {
		// Root split: grow the tree by one level.
		t.root = &node{leaf: false, entries: []*entry{l, r}}
	}
}

// insertInto inserts e below n. If n splits, the two entries that should
// replace n in its parent are returned; otherwise both are nil.
func (t *Tree) insertInto(n *node, e *entry) (*entry, *entry) {
	if n.leaf {
		// Find the closest leaf entry by centroid distance.
		best := -1
		bestD := math.Inf(1)
		for i, le := range n.entries {
			if d := centroidDist2(&le.cf, &e.cf); d < bestD {
				bestD = d
				best = i
			}
		}
		if best >= 0 && mergedRadius(&n.entries[best].cf, &e.cf) <= t.params.Threshold {
			n.entries[best].absorbEntry(e)
			return nil, nil
		}
		n.entries = append(n.entries, e)
		if len(n.entries) <= t.params.LeafSize {
			return nil, nil
		}
		return t.split(n)
	}
	// Nonleaf: descend into the child whose summary centroid is closest.
	best := 0
	bestD := math.Inf(1)
	for i, ce := range n.entries {
		if d := centroidDist2(&ce.cf, &e.cf); d < bestD {
			bestD = d
			best = i
		}
	}
	chosen := n.entries[best]
	l, r := t.insertInto(chosen.child, e)
	if l == nil {
		// No split below: just refresh the summary CF on the path.
		chosen.cf.Merge(&e.cf)
		return nil, nil
	}
	// Child split: replace the chosen entry with the two split halves.
	n.entries[best] = l
	n.entries = append(n.entries, r)
	if len(n.entries) <= t.params.Branching {
		return nil, nil
	}
	return t.split(n)
}

// split partitions an overflowing node's entries into two nodes, seeding
// with the farthest pair of entry centroids and assigning every other
// entry to the closer seed. It returns the two parent entries summarizing
// the halves.
func (t *Tree) split(n *node) (*entry, *entry) {
	entries := n.entries
	// Farthest pair seeding (O(k²), k is small).
	si, sj := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			if d := centroidDist2(&entries[i].cf, &entries[j].cf); d > worst {
				worst = d
				si, sj = i, j
			}
		}
	}
	left := &node{leaf: n.leaf}
	right := &node{leaf: n.leaf}
	for i, e := range entries {
		switch {
		case i == si:
			left.entries = append(left.entries, e)
		case i == sj:
			right.entries = append(right.entries, e)
		case centroidDist2(&e.cf, &entries[si].cf) <= centroidDist2(&e.cf, &entries[sj].cf):
			left.entries = append(left.entries, e)
		default:
			right.entries = append(right.entries, e)
		}
	}
	return t.summarize(left), t.summarize(right)
}

// summarize builds the parent entry describing node n.
func (t *Tree) summarize(n *node) *entry {
	s := &entry{cf: NewCF(t.params.Dim), child: n}
	for _, e := range n.entries {
		s.cf.Merge(&e.cf)
	}
	return s
}

// Cluster is the final output unit: one leaf entry of the CF-tree.
type Cluster struct {
	CF       CF
	Members  []int     // ids passed to Insert, in insertion order
	Centroid []float64 // CF centroid
	Min, Max []float64 // elementwise bounding box of member points
}

// Clusters returns all leaf entries as clusters. The slice is rebuilt on
// every call; mutating it does not affect the tree.
func (t *Tree) Clusters() []Cluster {
	var out []Cluster
	t.walkLeaves(t.root, func(e *entry) {
		c := Cluster{
			CF:       e.cf.Clone(),
			Members:  append([]int(nil), e.members...),
			Centroid: e.cf.Centroid(),
			Min:      append([]float64(nil), e.min...),
			Max:      append([]float64(nil), e.max...),
		}
		out = append(out, c)
	})
	return out
}

// NumClusters returns the number of leaf entries.
func (t *Tree) NumClusters() int {
	n := 0
	t.walkLeaves(t.root, func(*entry) { n++ })
	return n
}

func (t *Tree) walkLeaves(n *node, fn func(*entry)) {
	if n == nil {
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			fn(e)
		}
		return
	}
	for _, e := range n.entries {
		t.walkLeaves(e.child, fn)
	}
}

// Rebuild constructs a new tree with a larger threshold by reinserting the
// existing leaf entries whole, the mechanism BIRCH uses when a tree
// outgrows memory. newThreshold must be >= the current threshold.
func (t *Tree) Rebuild(newThreshold float64) (*Tree, error) {
	if newThreshold < t.params.Threshold {
		return nil, fmt.Errorf("birch: Rebuild threshold %v below current %v", newThreshold, t.params.Threshold)
	}
	params := t.params
	params.Threshold = newThreshold
	nt, err := NewTree(params)
	if err != nil {
		return nil, err
	}
	t.walkLeaves(t.root, func(e *entry) {
		// Detach the entry from the old tree before reinserting.
		ne := &entry{
			cf:      e.cf.Clone(),
			members: append([]int(nil), e.members...),
			min:     append([]float64(nil), e.min...),
			max:     append([]float64(nil), e.max...),
		}
		nt.insertEntry(ne)
	})
	return nt, nil
}

// ClusterPoints is a convenience: it inserts points[i] with id i under the
// given threshold and returns the clusters. If maxClusters > 0 the tree is
// rebuilt with doubled thresholds until at most maxClusters clusters
// remain.
func ClusterPoints(points [][]float64, threshold float64, maxClusters int) ([]Cluster, error) {
	if len(points) == 0 {
		return nil, nil
	}
	t, err := NewTree(DefaultParams(len(points[0]), threshold))
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if err := t.Insert(p, i); err != nil {
			return nil, err
		}
	}
	if maxClusters > 0 {
		// Doubling the threshold eventually absorbs everything into one
		// cluster, so the loop terminates; the iteration cap is a backstop
		// against pathological float behaviour.
		for iter := 0; t.NumClusters() > maxClusters && iter < 64; iter++ {
			th := t.params.Threshold * 2
			if th <= 0 {
				th = 1e-6
			}
			nt, err := t.Rebuild(th)
			if err != nil {
				return nil, err
			}
			t = nt
		}
	}
	return t.Clusters(), nil
}
