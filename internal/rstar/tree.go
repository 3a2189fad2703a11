package rstar

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Tree is an R*-tree over a NodeStore. It is not safe for concurrent
// mutation; concurrent Search calls are safe only against an immutable
// tree backed by a concurrency-safe store. For reads that must run
// concurrently with mutation, back the tree with a VersionedStore and
// search through epoch-pinned SnapshotView views instead.
type Tree struct {
	store NodeStore
	dim   int
	// M and m = 40% of M, per node kind: a store may fit more entries in
	// a leaf than in an inner node (see NodeStore.MaxEntries).
	leafMax, leafMin   int
	innerMax, innerMin int
	// reinsP is the number of entries forced reinsertion removes: 30% of
	// the inner M, at either level. 30% of a larger leaf M reinserts more
	// entries per overflow, each a descent that dirties pages, and made
	// disk writes measurably slower (DESIGN "Point leaves").
	reinsP int

	root   NodeID
	height int // 1 = root is a leaf
	size   int

	// Scratch for the insert heuristics' trial geometry, reused across
	// calls so ChooseSubtree and the split allocate nothing per candidate:
	// ua holds a trial union or prefix MBR, suffix the split's suffix
	// MBRs, cands ChooseSubtree's candidate keys, byMin/byMax one axis's
	// two sort orders. No node entry ever aliases them.
	ua           Rect
	suffix       []float64
	cands        []candidate
	byMin, byMax []Entry
	axisOrder    axisSorter

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
	minFill := func(maxE int) int {
		return max(maxE*2/5, 2) // 40%
	}
	leafMax, innerMax := s.MaxEntries(true), s.MaxEntries(false)
	dim := s.Dim()
	return &Tree{
		store: s, dim: dim,
		leafMax: leafMax, leafMin: minFill(leafMax),
		innerMax: innerMax, innerMin: minFill(innerMax),
		reinsP: max(innerMax*3/10, 1), // 30%
		ua:     Rect{Min: make([]float64, dim), Max: make([]float64, dim)},
	}
}

// maxEntries is M for a node of the given kind.
func (t *Tree) maxEntries(leaf bool) int {
	if leaf {
		return t.leafMax
	}
	return t.innerMax
}

// minEntries is m, the minimum fill of a non-root node of the given kind.
func (t *Tree) minEntries(leaf bool) int {
	if leaf {
		return t.leafMin
	}
	return t.innerMin
}

// Len returns the number of data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

func (t *Tree) saveMeta() error {
	return t.store.SetMeta(Meta{Root: t.root, Height: t.height, Size: t.size, Valid: true})
}

// Insert adds a data entry with the given rectangle (use Point for point
// data) and payload. A rectangle with a NaN or infinite coordinate, or
// with Min > Max on some axis, is rejected: it would defeat every area and
// margin comparison the heuristics make.
func (t *Tree) Insert(r Rect, data int64) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("rstar: rect has dim %d, tree has %d", r.Dim(), t.dim)
	}
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return fmt.Errorf("rstar: rect has non-finite bound on dim %d: [%v, %v]", i, lo, hi)
		}
		if lo > hi {
			return fmt.Errorf("rstar: rect has min %v > max %v on dim %d", lo, hi, i)
		}
	}
	var reinserted levelSet
	if err := t.insertEntry(Entry{Rect: r.Clone(), Data: data}, 0, &reinserted); err != nil {
		return err
	}
	t.size++
	if m := t.om.Load(); m != nil {
		m.inserts.Inc()
	}
	return t.saveMeta()
}

// levelSet records the tree levels that have had their forced
// reinsertion during one top-level operation, one bit per level (a tree
// of fan-out >= 2 cannot reach 64 levels).
type levelSet uint64

func (s levelSet) has(level int) bool { return s&(1<<uint(level)) != 0 }
func (s *levelSet) add(level int)     { *s |= 1 << uint(level) }

// insertEntry places e at targetLevel (0 = leaf level), handling overflow
// by forced reinsertion once per level per top-level insert, then by
// splitting.
func (t *Tree) insertEntry(e Entry, targetLevel int, reinserted *levelSet) error {
	// Descend, enlarging entry rectangles on the way so coverage always
	// holds, and remembering the path for overflow handling.
	type step struct {
		id  NodeID
		idx int
	}
	var pathBuf [16]step
	path := pathBuf[:0]
	id := t.root
	for level := t.height - 1; level > targetLevel; level-- {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		i := t.chooseSubtree(n, e.Rect, level)
		// Entry rectangles are copy-on-write (pinned versions may share
		// their bounds), so a growing entry gets fresh ones.
		if !n.Entries[i].Rect.Contains(e.Rect) {
			n.Entries[i].Rect = n.Entries[i].Rect.Union(e.Rect)
		}
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
		if len(n.Entries) <= t.maxEntries(n.Leaf) {
			return nil
		}
		rootLevel := t.height - 1
		if level < rootLevel && !reinserted.has(level) {
			reinserted.add(level)
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
// breaker (the R* heuristic). Ties on every key go to the lowest index.
//
// Each candidate's union e ∪ r is computed into the scratch rectangle
// t.ua, bit for bit the rectangle Rect.Union would return.
//
// Above the leaves, the candidates are visited in (enlargement, area,
// index) order and the first whose overlap enlargement is exactly 0 wins:
// overlap enlargement is never negative (DESIGN "Insert"), so no later
// candidate can beat it. The choice is the one an evaluation of every
// candidate in index order makes.
func (t *Tree) chooseSubtree(n *Node, r Rect, level int) int {
	union := t.ua
	if level == 1 {
		t.cands = t.cands[:0]
		for i, e := range n.Entries {
			union.setUnion(e.Rect, r)
			area := e.Rect.Area()
			t.cands = append(t.cands, candidate{enl: union.Area() - area, area: area, i: i})
		}
		slices.SortFunc(t.cands, compareCandidates)
		best, bestOverlap := t.cands[0].i, math.Inf(1)
		for _, c := range t.cands {
			union.setUnion(n.Entries[c.i].Rect, r)
			dOverlap := overlapEnlargement(n.Entries, c.i, union)
			if dOverlap == 0 {
				return c.i
			}
			if dOverlap < bestOverlap {
				best, bestOverlap = c.i, dOverlap
			}
		}
		return best
	}
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.Entries {
		union.setUnion(e.Rect, r)
		area := e.Rect.Area()
		enl := union.Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			bestEnl, bestArea, best = enl, area, i
		}
	}
	return best
}

// candidate is one child's ChooseSubtree keys short of its overlap
// enlargement.
type candidate struct {
	enl, area float64
	i         int
}

// compareCandidates orders candidates by (enlargement, area, index).
func compareCandidates(a, b candidate) int {
	if c := cmp.Compare(a.enl, b.enl); c != 0 {
		return c
	}
	if c := cmp.Compare(a.area, b.area); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// overlapEnlargement is how much the summed overlap of entries[i] with
// its siblings grows when entries[i] becomes union. A sibling with no
// overlap with union has none with entries[i] ⊆ union either: both its
// terms are +0, so skipping them changes neither sum.
func overlapEnlargement(entries []Entry, i int, union Rect) float64 {
	var before, after float64
	for j, o := range entries {
		if j == i {
			continue
		}
		a := union.OverlapArea(o.Rect)
		if a == 0 {
			continue
		}
		after += a
		before += entries[i].Rect.OverlapArea(o.Rect)
	}
	return after - before
}

// forceReinsertPick removes the reinsP entries of n whose centers are
// farthest from the node MBR's center, puts n back, and returns the
// removed entries ordered closest-first (the R* "close reinsert").
func (t *Tree) forceReinsertPick(n *Node) ([]Entry, error) {
	center := t.ua
	center.setMBR(n.Entries)
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
//
// The per-axis sort orders go into t.byMin/t.byMax, and eachDistribution
// folds the group MBRs from prefixes and suffixes; the winning axis is
// sorted again from the same input order, which reproduces its orders
// exactly.
func (t *Tree) splitNode(n *Node) (*Node, error) {
	if om := t.om.Load(); om != nil {
		om.splits.Inc()
	}
	entries := n.Entries
	m := t.minEntries(n.Leaf)

	bestAxis := 0
	bestAxisMargin := math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		t.sortAxis(entries, axis)
		marginSum := 0.0
		for _, sorted := range [2][]Entry{t.byMin, t.byMax} {
			t.eachDistribution(sorted, m, func(_ int, r1, r2 Rect) {
				marginSum += r1.Margin() + r2.Margin()
			})
		}
		if marginSum < bestAxisMargin {
			bestAxisMargin = marginSum
			bestAxis = axis
		}
	}

	t.sortAxis(entries, bestAxis)
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	var chosen []Entry
	chosenK := 0
	for _, sorted := range [2][]Entry{t.byMin, t.byMax} {
		t.eachDistribution(sorted, m, func(k int, r1, r2 Rect) {
			ov := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea, chosen, chosenK = ov, area, sorted, k
			}
		})
	}

	right, err := t.store.New(n.Leaf)
	if err != nil {
		return nil, err
	}
	n.Entries = append([]Entry(nil), chosen[:chosenK]...)
	right.Entries = append([]Entry(nil), chosen[chosenK:]...)
	if err := t.store.Put(n); err != nil {
		return nil, err
	}
	if err := t.store.Put(right); err != nil {
		return nil, err
	}
	return right, nil
}

// eachDistribution calls f, for k from m to len(sorted)-m in order, with
// the MBRs of sorted[:k] and sorted[k:]: O(M·d) per call instead of
// folding every group afresh. The prefix grows in t.ua by one extend per
// k; the suffixes are folded from the back into t.suffix first. setUnion
// keeps its first operand's bound unless the second lies strictly
// outside it, so each suffix holds the same bits as setMBR(sorted[k:])
// folded from the front (the first entry to reach an extreme supplies it).
func (t *Tree) eachDistribution(sorted []Entry, m int, f func(k int, r1, r2 Rect)) {
	total, w := len(sorted), 2*t.dim
	if len(t.suffix) < total*w {
		t.suffix = make([]float64, total*w)
	}
	suffix := func(k int) Rect {
		b := t.suffix[k*w : (k+1)*w]
		return Rect{Min: b[:t.dim], Max: b[t.dim:]}
	}
	last := suffix(total - 1)
	copy(last.Min, sorted[total-1].Rect.Min)
	copy(last.Max, sorted[total-1].Rect.Max)
	for k := total - 2; k >= m; k-- {
		suffix(k).setUnion(sorted[k].Rect, suffix(k+1))
	}
	prefix := t.ua
	prefix.setMBR(sorted[:m])
	for k := m; k <= total-m; k++ {
		if k > m {
			prefix.extend(sorted[k-1].Rect)
		}
		f(k, prefix, suffix(k))
	}
}

// sortAxis fills t.byMin with entries ordered by (Min, Max) on axis and
// t.byMax with entries ordered by Max on axis.
func (t *Tree) sortAxis(entries []Entry, axis int) {
	t.byMin = append(t.byMin[:0], entries...)
	t.byMax = append(t.byMax[:0], entries...)
	t.axisOrder = axisSorter{entries: t.byMin, axis: axis}
	sort.Sort(&t.axisOrder)
	t.axisOrder = axisSorter{entries: t.byMax, axis: axis, byMax: true}
	sort.Sort(&t.axisOrder)
}

// axisSorter orders entries on one axis without allocating. sort.Sort
// runs the same pattern-defeating quicksort as sort.Slice, so entries with
// equal keys land in the same order either way.
type axisSorter struct {
	entries []Entry
	axis    int
	byMax   bool
}

func (s *axisSorter) Len() int      { return len(s.entries) }
func (s *axisSorter) Swap(i, j int) { s.entries[i], s.entries[j] = s.entries[j], s.entries[i] }
func (s *axisSorter) Less(i, j int) bool {
	a, b := s.entries[i].Rect, s.entries[j].Rect
	if !s.byMax && a.Min[s.axis] != b.Min[s.axis] {
		return a.Min[s.axis] < b.Min[s.axis]
	}
	return a.Max[s.axis] < b.Max[s.axis]
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
			if len(n.Entries) < t.minEntries(n.Leaf) {
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
	var reinserted levelSet
	for _, o := range orphans {
		// Subtree orphans whose level now exceeds the root level are
		// flattened by reinserting their leaf descendants instead.
		if o.level > t.height-1 {
			if err := t.reinsertSubtree(o.e, &reinserted); err != nil {
				return true, err
			}
			continue
		}
		if err := t.insertEntry(o.e, o.level, &reinserted); err != nil {
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
func (t *Tree) reinsertSubtree(e Entry, reinserted *levelSet) error {
	var collect func(id NodeID) error
	collect = func(id NodeID) error {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		for _, ce := range n.Entries {
			if n.Leaf {
				if err := t.insertEntry(ce, 0, reinserted); err != nil {
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

// CheckInvariants verifies structural invariants; tests call it after
// mutation sequences. It checks (1) entry rectangles of internal nodes
// contain their subtrees, (2) all leaves are at the same depth, (3)
// non-root nodes respect their kind's minimum fill after deletions, and (4) the
// data entry count matches Len().
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(id NodeID, level int) (Rect, error)
	walk = func(id NodeID, level int) (Rect, error) {
		n, err := t.store.Get(id)
		if err != nil {
			return Rect{}, err
		}
		if maxE := t.maxEntries(n.Leaf); len(n.Entries) > maxE {
			return Rect{}, fmt.Errorf("rstar: node %d has %d entries, max %d", id, len(n.Entries), maxE)
		}
		if minE := t.minEntries(n.Leaf); id != t.root && len(n.Entries) < minE {
			return Rect{}, fmt.Errorf("rstar: node %d has %d entries, min %d", id, len(n.Entries), minE)
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
