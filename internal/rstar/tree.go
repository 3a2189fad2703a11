package rstar

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Tree is an R*-tree over a NodeStore. It is not safe for concurrent
// mutation; concurrent Search calls are safe only against an immutable
// tree backed by a concurrency-safe store. For reads that must run
// concurrently with mutation, back the tree with a VersionedStore and
// search through epoch-pinned SnapshotView views instead.
type Tree struct {
	store  NodeStore
	dim    int
	maxE   int // M
	minE   int // m = 40% of M
	reinsP int // entries removed by forced reinsertion (30% of M)

	root   NodeID
	height int // 1 = root is a leaf
	size   int

	om atomic.Pointer[treeMetrics] // nil = observability off
}

// New creates a fresh, empty tree in the store, overwriting any metadata
// already there.
func New(s NodeStore) (*Tree, error) {
	t := newTree(s)
	rootNode, err := s.New(true)
	if err != nil {
		return nil, err
	}
	t.root = rootNode.ID
	t.height = 1
	if err := s.Put(rootNode); err != nil {
		return nil, err
	}
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Load reopens a tree whose metadata is stored in s.
func Load(s NodeStore) (*Tree, error) {
	m, err := s.Meta()
	if err != nil {
		return nil, err
	}
	if !m.Valid {
		return nil, fmt.Errorf("rstar: store holds no tree")
	}
	t := newTree(s)
	t.root = m.Root
	t.height = m.Height
	t.size = m.Size
	return t, nil
}

func newTree(s NodeStore) *Tree {
	maxE := s.MaxEntries()
	minE := maxE * 2 / 5 // 40%
	if minE < 2 {
		minE = 2
	}
	reinsP := maxE * 3 / 10 // 30%
	if reinsP < 1 {
		reinsP = 1
	}
	return &Tree{store: s, dim: s.Dim(), maxE: maxE, minE: minE, reinsP: reinsP}
}

// Len returns the number of data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

func (t *Tree) saveMeta() error {
	return t.store.SetMeta(Meta{Root: t.root, Height: t.height, Size: t.size, Valid: true})
}

// Insert adds a data entry with the given rectangle (use Point for point
// data) and payload.
func (t *Tree) Insert(r Rect, data int64) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("rstar: rect has dim %d, tree has %d", r.Dim(), t.dim)
	}
	reinserted := make(map[int]bool)
	if err := t.insertEntry(Entry{Rect: r.Clone(), Data: data}, 0, reinserted); err != nil {
		return err
	}
	t.size++
	if m := t.om.Load(); m != nil {
		m.inserts.Inc()
	}
	return t.saveMeta()
}

// insertEntry places e at targetLevel (0 = leaf level), handling overflow
// by forced reinsertion once per level per top-level insert, then by
// splitting.
func (t *Tree) insertEntry(e Entry, targetLevel int, reinserted map[int]bool) error {
	// Descend, enlarging entry rectangles on the way so coverage always
	// holds, and remembering the path for overflow handling.
	type step struct {
		id  NodeID
		idx int
	}
	var path []step
	id := t.root
	for level := t.height - 1; level > targetLevel; level-- {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		i := t.chooseSubtree(n, e.Rect, level)
		n.Entries[i].Rect = n.Entries[i].Rect.Union(e.Rect)
		if err := t.store.Put(n); err != nil {
			return err
		}
		path = append(path, step{id, i})
		id = n.Entries[i].Child
	}
	n, err := t.store.Get(id)
	if err != nil {
		return err
	}
	n.Entries = append(n.Entries, e)
	if err := t.store.Put(n); err != nil {
		return err
	}

	// Overflow treatment, walking back up the path as splits propagate.
	level := targetLevel
	for {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		if len(n.Entries) <= t.maxE {
			return nil
		}
		rootLevel := t.height - 1
		if level < rootLevel && !reinserted[level] {
			reinserted[level] = true
			removed, err := t.forceReinsertPick(n)
			if err != nil {
				return err
			}
			for _, re := range removed {
				if err := t.insertEntry(re, level, reinserted); err != nil {
					return err
				}
			}
			return nil
		}
		right, err := t.splitNode(n)
		if err != nil {
			return err
		}
		if id == t.root {
			newRoot, err := t.store.New(false)
			if err != nil {
				return err
			}
			newRoot.Entries = []Entry{
				{Rect: n.mbr(), Child: n.ID},
				{Rect: right.mbr(), Child: right.ID},
			}
			if err := t.store.Put(newRoot); err != nil {
				return err
			}
			t.root = newRoot.ID
			t.height++
			return t.saveMeta()
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		pn, err := t.store.Get(parent.id)
		if err != nil {
			return err
		}
		pn.Entries[parent.idx].Rect = n.mbr()
		pn.Entries = append(pn.Entries, Entry{Rect: right.mbr(), Child: right.ID})
		if err := t.store.Put(pn); err != nil {
			return err
		}
		id = parent.id
		level++
	}
}

// chooseSubtree picks the child of n (at the given level) to descend into
// for rectangle r: for nodes whose children are leaves, minimal overlap
// enlargement; otherwise minimal area enlargement, with area as the tie
// breaker (the R* heuristic).
func (t *Tree) chooseSubtree(n *Node, r Rect, level int) int {
	best := 0
	if level == 1 {
		// Children are leaves: minimize overlap enlargement.
		bestOverlap := math.Inf(1)
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i, e := range n.Entries {
			union := e.Rect.Union(r)
			var before, after float64
			for j, o := range n.Entries {
				if j == i {
					continue
				}
				before += e.Rect.OverlapArea(o.Rect)
				after += union.OverlapArea(o.Rect)
			}
			dOverlap := after - before
			enl := e.Rect.Enlargement(r)
			area := e.Rect.Area()
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && enl < bestEnl) ||
				(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
				bestOverlap, bestEnl, bestArea, best = dOverlap, enl, area, i
			}
		}
		return best
	}
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.Entries {
		enl := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			bestEnl, bestArea, best = enl, area, i
		}
	}
	return best
}

// forceReinsertPick removes the reinsP entries of n whose centers are
// farthest from the node MBR's center, puts n back, and returns the
// removed entries ordered closest-first (the R* "close reinsert").
func (t *Tree) forceReinsertPick(n *Node) ([]Entry, error) {
	center := n.mbr()
	type distEntry struct {
		d float64
		e Entry
	}
	des := make([]distEntry, len(n.Entries))
	for i, e := range n.Entries {
		des[i] = distEntry{centerDist2(e.Rect, center), e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })
	keep := len(des) - t.reinsP
	n.Entries = n.Entries[:0]
	for i := 0; i < keep; i++ {
		n.Entries = append(n.Entries, des[i].e)
	}
	if err := t.store.Put(n); err != nil {
		return nil, err
	}
	removed := make([]Entry, 0, t.reinsP)
	for i := keep; i < len(des); i++ {
		removed = append(removed, des[i].e)
	}
	return removed, nil
}

// splitNode splits an overflowing node with the R* topological split:
// choose the axis minimizing total margin over all distributions, then the
// distribution on that axis with minimal overlap (ties: minimal total
// area). n keeps the first group; the returned new node holds the second.
func (t *Tree) splitNode(n *Node) (*Node, error) {
	if om := t.om.Load(); om != nil {
		om.splits.Inc()
	}
	entries := n.Entries
	m := t.minE
	total := len(entries)

	type distribution struct {
		sorted []Entry
		k      int // first group size
	}
	var bestAxisMargin = math.Inf(1)
	var axisDists []distribution
	for axis := 0; axis < t.dim; axis++ {
		byMin := append([]Entry(nil), entries...)
		a := axis
		sort.Slice(byMin, func(i, j int) bool {
			if byMin[i].Rect.Min[a] != byMin[j].Rect.Min[a] {
				return byMin[i].Rect.Min[a] < byMin[j].Rect.Min[a]
			}
			return byMin[i].Rect.Max[a] < byMin[j].Rect.Max[a]
		})
		byMax := append([]Entry(nil), entries...)
		sort.Slice(byMax, func(i, j int) bool { return byMax[i].Rect.Max[a] < byMax[j].Rect.Max[a] })

		marginSum := 0.0
		var dists []distribution
		for _, sorted := range [][]Entry{byMin, byMax} {
			for k := m; k <= total-m; k++ {
				r1 := mbrOf(sorted[:k])
				r2 := mbrOf(sorted[k:])
				marginSum += r1.Margin() + r2.Margin()
				dists = append(dists, distribution{sorted, k})
			}
		}
		if marginSum < bestAxisMargin {
			bestAxisMargin = marginSum
			axisDists = dists
		}
	}

	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	var chosen distribution
	for _, d := range axisDists {
		r1 := mbrOf(d.sorted[:d.k])
		r2 := mbrOf(d.sorted[d.k:])
		ov := r1.OverlapArea(r2)
		area := r1.Area() + r2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, chosen = ov, area, d
		}
	}

	right, err := t.store.New(n.Leaf)
	if err != nil {
		return nil, err
	}
	n.Entries = append([]Entry(nil), chosen.sorted[:chosen.k]...)
	right.Entries = append([]Entry(nil), chosen.sorted[chosen.k:]...)
	if err := t.store.Put(n); err != nil {
		return nil, err
	}
	if err := t.store.Put(right); err != nil {
		return nil, err
	}
	return right, nil
}

func mbrOf(entries []Entry) Rect {
	r := entries[0].Rect.Clone()
	for _, e := range entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// Delete removes one data entry whose rectangle equals r and whose payload
// equals data, reporting whether an entry was removed. Underflowing nodes
// are dissolved and their entries reinserted (condense-tree).
func (t *Tree) Delete(r Rect, data int64) (bool, error) {
	if r.Dim() != t.dim {
		return false, fmt.Errorf("rstar: rect has dim %d, tree has %d", r.Dim(), t.dim)
	}
	type step struct {
		id  NodeID
		idx int
	}
	type orphan struct {
		e     Entry
		level int
	}
	var orphans []orphan

	// condense dissolves underflowing non-root nodes bottom-up after the
	// entry has been removed from leaf n, tightening surviving ancestors.
	condense := func(n *Node, level int, path []step) error {
		for len(path) > 0 {
			parentStep := path[len(path)-1]
			path = path[:len(path)-1]
			pn, err := t.store.Get(parentStep.id)
			if err != nil {
				return err
			}
			if len(n.Entries) < t.minE {
				// Dissolve n: remove from parent, orphan its entries.
				for _, e := range n.Entries {
					orphans = append(orphans, orphan{e, level})
				}
				pn.Entries = append(pn.Entries[:parentStep.idx], pn.Entries[parentStep.idx+1:]...)
				if err := t.store.Free(n.ID); err != nil {
					return err
				}
			} else {
				pn.Entries[parentStep.idx].Rect = n.mbr()
			}
			if err := t.store.Put(pn); err != nil {
				return err
			}
			n = pn
			level++
		}
		return nil
	}

	var walk func(id NodeID, level int, path []step) (bool, error)
	walk = func(id NodeID, level int, path []step) (bool, error) {
		n, err := t.store.Get(id)
		if err != nil {
			return false, err
		}
		if n.Leaf {
			for i, e := range n.Entries {
				if e.Data == data && e.Rect.Equal(r) {
					n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
					if err := t.store.Put(n); err != nil {
						return false, err
					}
					return true, condense(n, level, path)
				}
			}
			return false, nil
		}
		for i, e := range n.Entries {
			if !e.Rect.Contains(r) {
				continue
			}
			ok, err := walk(e.Child, level-1, append(path, step{id, i}))
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}

	ok, err := walk(t.root, t.height-1, nil)
	if err != nil || !ok {
		return ok, err
	}
	t.size--

	// Reinsert orphans at their recorded levels.
	reinserted := make(map[int]bool)
	for _, o := range orphans {
		// Subtree orphans whose level now exceeds the root level are
		// flattened by reinserting their leaf descendants instead.
		if o.level > t.height-1 {
			if err := t.reinsertSubtree(o.e, &reinserted); err != nil {
				return true, err
			}
			continue
		}
		if err := t.insertEntry(o.e, o.level, reinserted); err != nil {
			return true, err
		}
	}

	// Shrink the root while it is an internal node with a single child.
	for t.height > 1 {
		rn, err := t.store.Get(t.root)
		if err != nil {
			return true, err
		}
		if rn.Leaf || len(rn.Entries) != 1 {
			break
		}
		child := rn.Entries[0].Child
		if err := t.store.Free(rn.ID); err != nil {
			return true, err
		}
		t.root = child
		t.height--
	}
	return true, t.saveMeta()
}

// reinsertSubtree dissolves a subtree entry into its data entries and
// reinserts them all at the leaf level.
func (t *Tree) reinsertSubtree(e Entry, reinserted *map[int]bool) error {
	var collect func(id NodeID) error
	collect = func(id NodeID) error {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		for _, ce := range n.Entries {
			if n.Leaf {
				if err := t.insertEntry(ce, 0, *reinserted); err != nil {
					return err
				}
				continue
			}
			if err := collect(ce.Child); err != nil {
				return err
			}
		}
		return t.store.Free(id)
	}
	return collect(e.Child)
}

// NNEntry pairs a data entry with its distance for NN results.
type NNEntry struct {
	Entry Entry
	Dist  float64
}

// NN returns the k data entries nearest to point p by MinDist (best-first
// search with a node priority queue).
func (t *Tree) NN(p []float64, k int) ([]NNEntry, error) {
	if len(p) != t.dim {
		return nil, fmt.Errorf("rstar: point has dim %d, tree has %d", len(p), t.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	type item struct {
		dist  float64
		node  NodeID // InvalidNode for data entries
		entry Entry
	}
	// A simple slice-based priority queue keyed by dist; sizes here are
	// modest so O(n) pops are acceptable.
	var pq []item
	push := func(it item) { pq = append(pq, it) }
	pop := func() item {
		best := 0
		for i := 1; i < len(pq); i++ {
			if pq[i].dist < pq[best].dist {
				best = i
			}
		}
		it := pq[best]
		pq[best] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		return it
	}
	push(item{0, t.root, Entry{}})
	var out []NNEntry
	for len(pq) > 0 && len(out) < k {
		it := pop()
		if it.node == InvalidNode {
			out = append(out, NNEntry{Entry: it.entry, Dist: math.Sqrt(it.dist)})
			continue
		}
		n, err := t.store.Get(it.node)
		if err != nil {
			return nil, err
		}
		for _, e := range n.Entries {
			d := e.Rect.MinDist2(p)
			if n.Leaf {
				push(item{d, InvalidNode, e})
			} else {
				push(item{d, e.Child, Entry{}})
			}
		}
	}
	return out, nil
}

// CheckInvariants verifies structural invariants; tests call it after
// mutation sequences. It checks (1) entry rectangles of internal nodes
// contain their subtrees, (2) all leaves are at the same depth, (3)
// non-root nodes respect the minimum fill after deletions, and (4) the
// data entry count matches Len().
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(id NodeID, level int) (Rect, error)
	walk = func(id NodeID, level int) (Rect, error) {
		n, err := t.store.Get(id)
		if err != nil {
			return Rect{}, err
		}
		if len(n.Entries) > t.maxE {
			return Rect{}, fmt.Errorf("rstar: node %d has %d entries, max %d", id, len(n.Entries), t.maxE)
		}
		if id != t.root && len(n.Entries) < t.minE {
			return Rect{}, fmt.Errorf("rstar: node %d has %d entries, min %d", id, len(n.Entries), t.minE)
		}
		if n.Leaf {
			if level != 0 {
				return Rect{}, fmt.Errorf("rstar: leaf %d at level %d", id, level)
			}
			count += len(n.Entries)
			if len(n.Entries) == 0 {
				return Rect{}, nil
			}
			return n.mbr(), nil
		}
		if level == 0 {
			return Rect{}, fmt.Errorf("rstar: internal node %d at leaf level", id)
		}
		for _, e := range n.Entries {
			childMBR, err := walk(e.Child, level-1)
			if err != nil {
				return Rect{}, err
			}
			if len(childMBR.Min) > 0 && !e.Rect.Contains(childMBR) {
				return Rect{}, fmt.Errorf("rstar: node %d entry rect does not contain child %d", id, e.Child)
			}
		}
		return n.mbr(), nil
	}
	if _, err := walk(t.root, t.height-1); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rstar: tree holds %d entries, Len() says %d", count, t.size)
	}
	return nil
}
