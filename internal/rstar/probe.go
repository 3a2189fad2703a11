package rstar

import (
	"fmt"
	"math"
	"time"

	"walrus/internal/obs"
)

// Probe is one range query of a multi-probe descent. It matches every data
// entry whose rectangle intersects Box and — when Center is set — whose
// point (the rectangle's Min corner; WALRUS indexes centroid signatures as
// degenerate rectangles) lies within euclidean distance Eps of Center. The
// ball test runs only in leaves; inner nodes are pruned by Box alone.
type Probe struct {
	Box    Rect
	Center []float64
	Eps    float64
}

// Matches reports whether a data entry with rectangle r answers the probe.
func (p *Probe) Matches(r Rect) bool {
	return r.Intersects(p.Box) && (p.Center == nil || p.within(r.Min))
}

// within is the ball half of the leaf test: math.Sqrt(Σ(c_j − p_j)²) with
// the query as the left operand, the expression the query pipeline's
// euclid uses, so moving the test into the index changes no result bit.
func (p *Probe) within(point []float64) bool {
	sum := 0.0
	for j, c := range p.Center {
		diff := c - point[j]
		sum += diff * diff
	}
	return !(math.Sqrt(sum) > p.Eps)
}

// withinRaw is within for a leaf entry still in page form: box holds the
// entry's dim float64 mins followed by its dim maxs (see paged.go).
func (p *Probe) withinRaw(box []byte) bool {
	sum := 0.0
	for j, c := range p.Center {
		diff := c - rawFloat(box, j)
		sum += diff * diff
	}
	return !(math.Sqrt(sum) > p.Eps)
}

// intersectsRaw is Rect.Intersects for an entry rectangle in page form.
func intersectsRaw(box []byte, dim int, q Rect) bool {
	for j := 0; j < dim; j++ {
		if rawFloat(box, j) > q.Max[j] || q.Min[j] > rawFloat(box, dim+j) {
			return false
		}
	}
	return true
}

// pending is a child the descent has yet to visit, with the probes still
// active for it: descent.active[lo:hi].
type pending struct {
	id     NodeID
	lo, hi int32
}

// descent is the state of one depth-first traversal answering a set of
// probes together. A node is visited when any probe active for it
// intersects its entry in the parent; the active set narrows on the way
// down. Both stacks are allocated once per search, so visiting a node
// allocates nothing.
//
// Exactly one of emit and each is set. each receives whole entries and may
// stop the search; it serves the single-box Search wrappers.
type descent struct {
	store  NodeStore
	epoch  uint64 // version resolved by a VersionedStore; MaxUint64 = newest
	probes []Probe
	emit   func(probe int, data int64)
	each   func(Entry) bool

	active  []int     // probe indices; every node's active set is a range of it
	todo    []pending // children found by the scans in progress, one run per level
	visits  int
	stopped bool
}

// visit scans node id for the probes active[lo:hi] and then descends into
// the children the scan pushed, in entry order. The scan holds whatever the
// store needs to keep the node's bytes stable (a buffer-pool pin, the
// versioned store's read lock) and has released it before the first child
// is visited, so a search never holds more than one.
func (d *descent) visit(id NodeID, lo, hi int) error {
	d.visits++
	first, mark := len(d.todo), len(d.active)
	if err := scanStore(d.store, d, id, lo, hi); err != nil {
		return err
	}
	for i, end := first, len(d.todo); i < end && !d.stopped; i++ {
		c := d.todo[i]
		if err := d.visit(c.id, int(c.lo), int(c.hi)); err != nil {
			return err
		}
	}
	d.todo, d.active = d.todo[:first], d.active[:mark]
	return nil
}

// scanStore scans node id of s for the descent: in place where the store
// can (PagedStore on the pinned page's bytes, VersionedStore on its overlay
// or base), else over the node the store hands out. A switch on the two
// concrete types rather than an optional interface: a dynamic call would
// make the descent escape to the heap.
func scanStore(s NodeStore, d *descent, id NodeID, lo, hi int) error {
	switch s := s.(type) {
	case *PagedStore:
		return s.scan(d, id, lo, hi)
	case *VersionedStore:
		return s.scan(d, id, lo, hi)
	}
	n, err := s.Get(id)
	if err != nil {
		return err
	}
	d.scanNode(n, lo, hi)
	return nil
}

// scanNode tests an in-memory node's entries where they lie: leaf entries
// are emitted per matching active probe; a child is pushed for visit with
// the active probes that intersect its entry, or dropped when none does.
func (d *descent) scanNode(n *Node, lo, hi int) {
	// active stays readable through this header even when pushing children
	// grows (and so moves) the stack it is a window of.
	probes, active := d.probes, d.active[lo:hi]
	if n.Leaf {
		for _, e := range n.Entries {
			for _, pi := range active {
				p := &probes[pi]
				if !e.Rect.Intersects(p.Box) || (p.Center != nil && !p.within(e.Rect.Min)) {
					continue
				}
				if d.each == nil {
					d.emit(pi, e.Data)
				} else if !d.each(e) {
					d.stopped = true
					return
				}
			}
		}
		return
	}
	stack, todo := d.active, d.todo
	for _, e := range n.Entries {
		mark := len(stack)
		for _, pi := range active {
			if e.Rect.Intersects(probes[pi].Box) {
				stack = append(stack, pi)
			}
		}
		if len(stack) > mark {
			todo = append(todo, pending{id: e.Child, lo: int32(mark), hi: int32(len(stack))})
		}
	}
	d.active, d.todo = stack, todo
}

// descend runs one traversal from root for all probes and returns the
// number of nodes visited. With a registry attached it counts one search
// per descent and records the rstar.search span.
func descend(s NodeStore, epoch uint64, m *treeMetrics, root NodeID, dim, height int,
	probes []Probe, emit func(int, int64), each func(Entry) bool) (int, error) {
	for i := range probes {
		p := &probes[i]
		if p.Box.Dim() != dim {
			return 0, fmt.Errorf("rstar: query has dim %d, tree has %d", p.Box.Dim(), dim)
		}
		if p.Center != nil && len(p.Center) != dim {
			return 0, fmt.Errorf("rstar: probe center has dim %d, tree has %d", len(p.Center), dim)
		}
	}
	if len(probes) == 0 {
		return 0, nil
	}
	var start time.Time
	if m != nil {
		start = obs.Clock()
	}
	// Only inner nodes push, each at most MaxEntries+1 children (the
	// transient overflow slot included) with at most len(probes) active
	// probes apiece, and one run per level is live at a time: sized to that
	// bound, the stacks never grow during the descent.
	pendingMax := (s.MaxEntries() + 1) * max(height-1, 0)
	d := descent{
		store: s, epoch: epoch, probes: probes, emit: emit, each: each,
		active: make([]int, len(probes), len(probes)*(1+pendingMax)),
		todo:   make([]pending, 0, pendingMax),
	}
	for i := range probes {
		d.active[i] = i
	}
	err := d.visit(root, 0, len(probes))
	if m != nil {
		m.searches.Inc()
		m.nodeVisits.Add(uint64(d.visits))
		m.reg.RecordSpan("rstar.search", 0, start, obs.Since(start),
			obs.Attr{Key: "node_visits", Value: int64(d.visits)})
	}
	return d.visits, err
}

// Probe answers every probe in one depth-first descent: emit is called
// with the probe's index and the payload of each data entry matching it.
// Per probe, entries arrive in the order that probe would find them
// searching alone; entries of different probes interleave. It returns the
// number of nodes visited — each node once however many probes reach it.
//
// emit runs while the node being scanned is pinned (and, on a versioned
// store, under the store's read lock): it must not call back into the tree
// or its store.
func (t *Tree) Probe(probes []Probe, emit func(probe int, data int64)) (visits int, err error) {
	return t.descend(probes, emit, nil)
}

func (t *Tree) descend(probes []Probe, emit func(int, int64), each func(Entry) bool) (int, error) {
	return descend(t.store, math.MaxUint64, t.om.Load(), t.root, t.dim, t.height, probes, emit, each)
}

// Search invokes fn for every data entry whose rectangle intersects q,
// stopping early if fn returns false. fn runs under the same restrictions
// as Probe's emit.
func (t *Tree) Search(q Rect, fn func(Entry) bool) error {
	_, err := t.descend([]Probe{{Box: q}}, nil, fn)
	return err
}

// SearchAll collects every data entry intersecting q.
func (t *Tree) SearchAll(q Rect) ([]Entry, error) {
	out, _, err := t.SearchAllCounting(q)
	return out, err
}

// SearchAllCounting is SearchAll plus the number of nodes the search
// visited.
func (t *Tree) SearchAllCounting(q Rect) ([]Entry, int, error) {
	var out []Entry
	visits, err := t.descend([]Probe{{Box: q}}, nil, collectInto(&out))
	return out, visits, err
}

func collectInto(out *[]Entry) func(Entry) bool {
	return func(e Entry) bool {
		*out = append(*out, e)
		return true
	}
}

// Probe is Tree.Probe at the pinned epoch; the same contract for emit
// applies.
func (tv *TreeView) Probe(probes []Probe, emit func(probe int, data int64)) (visits int, err error) {
	return tv.descend(probes, emit, nil)
}

func (tv *TreeView) descend(probes []Probe, emit func(int, int64), each func(Entry) bool) (int, error) {
	return descend(tv.vs, tv.epoch, tv.om.Load(), tv.root, tv.dim, tv.height, probes, emit, each)
}

// Search invokes fn for every data entry at the pinned epoch whose
// rectangle intersects q, stopping early if fn returns false.
func (tv *TreeView) Search(q Rect, fn func(Entry) bool) error {
	_, err := tv.descend([]Probe{{Box: q}}, nil, fn)
	return err
}

// SearchAll collects every data entry at the pinned epoch intersecting q.
func (tv *TreeView) SearchAll(q Rect) ([]Entry, error) {
	out, _, err := tv.SearchAllCounting(q)
	return out, err
}

// SearchAllCounting is SearchAll plus the number of nodes the search
// visited at the pinned epoch.
func (tv *TreeView) SearchAllCounting(q Rect) ([]Entry, int, error) {
	var out []Entry
	visits, err := tv.descend([]Probe{{Box: q}}, nil, collectInto(&out))
	return out, visits, err
}
