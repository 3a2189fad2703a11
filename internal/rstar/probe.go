package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"walrus/internal/obs"
)

// Probe is one range query of a multi-probe descent. A probe is a box, a
// ball or both, and matches every data entry that passes each test it
// has. The box test keeps entries whose rectangle intersects Box; a probe
// has a box when Box.Min is non-nil. The ball test, present when Center
// is set, keeps entries whose point (the rectangle's Min corner; WALRUS
// indexes centroid signatures as degenerate rectangles) lies within
// euclidean distance Eps of Center: math.Sqrt(Σ(c_j − p_j)²) > Eps is
// false, the query pipeline's euclid with the query as the left operand.
// A ball prunes inner nodes by MINDIST (see farBoxRaw); that drops no
// match as long as no difference c_j − p_j is NaN, which finite
// signatures never produce. A ball alone is exactly the euclid rule; an
// ε-cube box beside it is not a harmless filter, since the cube's
// rounded edges can fall inside the ball (DESIGN.md, "Pruning by the
// ball").
type Probe struct {
	Box    Rect
	Center []float64
	Eps    float64
}

// ballBound returns T, the largest sum of squares the ball test keeps, so
// that for every sum x ≥ 0 (+Inf and NaN included) x > T holds exactly when
// math.Sqrt(x) > eps does. Comparing the growing sum against T lets a scan
// reject an entry at its first partial sum that already fails, and spares
// the square root. NaN and +Inf radii keep every sum; negative ones none.
func ballBound(eps float64) float64 {
	switch {
	case !(eps < math.Inf(1)):
		return math.Inf(1)
	case eps < 0:
		return math.Inf(-1)
	}
	// eps² lies within an ulp or two of T: walk down until its root passes
	// (0 always does), then up while the next float's root still passes.
	t := eps * eps
	for t > 0 && math.Sqrt(t) > eps {
		t = math.Nextafter(t, 0)
	}
	for next := math.Nextafter(t, math.Inf(1)); !(math.Sqrt(next) > eps); next = math.Nextafter(t, math.Inf(1)) {
		t = next
	}
	return t
}

// ballBlock is the number of coordinates the ball tests sum between two
// comparisons with the bound.
const ballBlock = 4

// farPointRaw is the leaf's ball test on an entry in page form: box
// starts with the entry's dim float64 coordinates (a point leaf's entry is
// its point alone, a box entry's mins are followed by its maxs; see
// page.go). It reports whether that point lies outside the ball, bound
// being ballBound(p.Eps). Terms are summed in euclid's order; the float64
// conversion rounds each square before it is added, as euclid's does, on
// every architecture: Go may otherwise fuse x*y + z into one instruction.
//
// The sum is compared with the bound once per block of ballBlock terms,
// and then once per term for the rest. Partial sums of non-negative terms
// only grow, so a block sum above bound means some prefix passed it, and
// one at or below bound means none in the block did: the blocked test
// decides exactly what a test after every term would. The one exception
// is a NaN block sum (a NaN coordinate, or an infinity less the same
// infinity), which hides whether a prefix before the NaN passed the
// bound; farBlockNaN re-walks that block term by term.
func (p *Probe) farPointRaw(box []byte, bound float64) bool {
	c, sum := p.Center, 0.0
	for ; len(c) >= ballBlock && len(box) >= 8*ballBlock; c, box = c[ballBlock:], box[8*ballBlock:] {
		d0, d1 := c[0]-leFloat(box), c[1]-leFloat(box[8:])
		d2, d3 := c[2]-leFloat(box[16:]), c[3]-leFloat(box[24:])
		s := sum + float64(d0*d0)
		s += float64(d1 * d1)
		s += float64(d2 * d2)
		s += float64(d3 * d3)
		if s > bound {
			return true
		}
		if s != s {
			return farBlockNaN(sum, bound, d0, d1, d2, d3)
		}
		sum = s
	}
	for _, cj := range c {
		diff := cj - leFloat(box)
		if sum += float64(diff * diff); sum > bound {
			return true
		}
		box = box[8:]
	}
	return false
}

// farBlockNaN is the cold path of a block whose sum is NaN: it adds the
// block's differences d to sum, the sum before the block, one square at a
// time, and reports whether a partial sum passes bound before the first
// NaN. Past that NaN every sum is NaN and passes nothing, so when none
// does the entry is kept, as the test after every term would keep it.
func farBlockNaN(sum, bound float64, d ...float64) bool {
	for _, diff := range d {
		if sum += float64(diff * diff); sum > bound {
			return true
		}
	}
	return false
}

// farBoxRaw is the inner nodes' ball test on an entry rectangle in page
// form, mins then maxs from float dim on: it reports whether the
// rectangle [lo, hi] lies outside the ball, by its MINDIST to Center
// summed the way farPointRaw sums, blocks included. For a point q inside
// the rectangle each term c − lo_j (when c < lo_j) or c − hi_j (when
// c > hi_j) is, by monotone rounding, no larger in magnitude than
// farPointRaw's c − q_j, and zero otherwise, so every partial sum here is
// at most farPointRaw's: a rectangle farBoxRaw rejects holds no point
// farPointRaw would keep. A NaN center yields NaN sums and prunes nothing,
// as farPointRaw keeps everything.
func (p *Probe) farBoxRaw(box []byte, dim int, bound float64) bool {
	lo, hi := box, box[8*dim:]
	c, sum := p.Center, 0.0
	for ; len(c) >= ballBlock && len(lo) >= 8*ballBlock && len(hi) >= 8*ballBlock; c, lo, hi = c[ballBlock:], lo[8*ballBlock:], hi[8*ballBlock:] {
		d0, d1 := minDiff(c[0], lo, hi), minDiff(c[1], lo[8:], hi[8:])
		d2, d3 := minDiff(c[2], lo[16:], hi[16:]), minDiff(c[3], lo[24:], hi[24:])
		s := sum + float64(d0*d0)
		s += float64(d1 * d1)
		s += float64(d2 * d2)
		s += float64(d3 * d3)
		if s > bound {
			return true
		}
		if s != s {
			return farBlockNaN(sum, bound, d0, d1, d2, d3)
		}
		sum = s
	}
	for _, cj := range c {
		diff := minDiff(cj, lo, hi)
		if sum += float64(diff * diff); sum > bound {
			return true
		}
		lo, hi = lo[8:], hi[8:]
	}
	return false
}

// minDiff is one coordinate's MINDIST difference between c and the
// interval whose bounds start lo and hi in page form: c − lo when c is
// below the interval (negative), c − hi when above, 0 inside.
func minDiff(c float64, lo, hi []byte) float64 {
	diff := c - leFloat(lo)
	if diff > 0 {
		if diff = c - leFloat(hi); diff < 0 {
			diff = 0
		}
	}
	return diff
}

// intersectsRaw reports whether an entry rectangle in page form, whose
// maxs start at float hi (hi = dim for a box, 0 for a point, whose maxs
// are its mins), shares any point with q; touching counts.
func intersectsRaw(box []byte, hi int, q Rect) bool {
	lo, up := box, box[8*hi:]
	for j, qlo := range q.Min {
		if leFloat(lo) > q.Max[j] || qlo > leFloat(up) {
			return false
		}
		lo, up = lo[8:], up[8:]
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
// probes together. A node is visited when any probe active for it may
// match inside its entry in the parent; the active set narrows on the way
// down. The stacks are allocated once per search, so visiting a node
// allocates nothing.
//
// Exactly one of emit and each is set. each receives whole entries and may
// stop the search; it serves the single-box Search wrappers.
type descent struct {
	store  NodeStore
	epoch  uint64 // version resolved by a VersionedStore; MaxUint64 = newest
	probes []Probe
	bounds []float64 // bounds[i] = ballBound(probes[i].Eps)
	emit   func(probe int, data int64)
	each   func(Entry) bool

	active  []int     // probe indices; every node's active set is a range of it
	todo    []pending // children found by the scans in progress, one run per level
	counts  ProbeCounts
	stopped bool
}

// ProbeCounts is what one descent did: the nodes it visited, each once
// however many probes reached it, and its leaf entry tests — for every
// leaf scanned, its entries times the probes active there.
type ProbeCounts struct {
	Visits     int
	EntryTests int
}

// visit scans node id for the probes active[lo:hi] and then descends into
// the children the scan pushed, in entry order. The scan holds whatever the
// store needs to keep the node's bytes stable (a buffer-pool pin, the
// versioned store's read lock) and has released it before the first child
// is visited, so a search never holds more than one.
func (d *descent) visit(id NodeID, lo, hi int) error {
	d.counts.Visits++
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

// scanStore scans node id of s for the descent on the node's page, where
// it lies: a MemStore's own slice, a PagedStore's pinned frame, or a
// VersionedStore's overlay copy or base. A switch on the concrete types
// rather than an interface: a dynamic call would make the descent escape
// to the heap.
func scanStore(s NodeStore, d *descent, id NodeID, lo, hi int) error {
	switch s := s.(type) {
	case *MemStore:
		page, err := s.page(id)
		if err != nil {
			return err
		}
		s.scanPage(d, page, lo, hi)
		return nil
	case *PagedStore:
		return s.scan(d, id, lo, hi)
	case *VersionedStore:
		return s.scan(d, id, lo, hi)
	}
	return fmt.Errorf("rstar: %T keeps no node pages to scan", s)
}

// scanPage is the scan kernel every store runs, over a page trimmed to its
// header and entries, which it trusts: a PagedStore checks a frame's bytes
// once per pool residence, while MemStore pages and overlay pre-images
// never left the process. It tests the entries where they lie and builds
// no Node, Entry or Rect (the Search wrappers' each callback excepted,
// which needs whole entries for its hits). Leaf entries are emitted per
// matching active probe; a child is pushed for visit with the active
// probes its entry may hold matches for — inside the ball (when the probe
// has one) and intersecting the box (when it has one) — or dropped when
// none may. The ball test goes first: it rejects far more.
func (l layout) scanPage(d *descent, page []byte, lo, hi int) {
	// active stays readable through this header even when pushing children
	// grows (and so moves) the stack it is a window of.
	probes, bounds, active := d.probes, d.bounds, d.active[lo:hi]
	leaf, count := pageHeader(page)
	dim, stride, entries := l.dim, l.stride(leaf), page[pagedHeader:]
	if leaf {
		d.counts.EntryTests += count * len(active)
		// A point leaf's entry is its coordinates alone: the ball test
		// reads them as a point, and the box test reads them as both
		// corners.
		hi := l.hiOffset(true)
		for ; len(entries) > 0; entries = entries[stride:] {
			box := entries[pagedRefBytes:stride]
			for _, pi := range active {
				p := &probes[pi]
				if (p.Center != nil && p.farPointRaw(box, bounds[pi])) || (p.Box.Min != nil && !intersectsRaw(box, hi, p.Box)) {
					continue
				}
				data := int64(binary.LittleEndian.Uint64(entries))
				if d.each == nil {
					d.emit(pi, data)
				} else if !d.each(Entry{Rect: l.decodeRect(box, hi), Data: data}) {
					d.stopped = true
					return
				}
			}
		}
		return
	}
	stack, todo := d.active, d.todo
	for ; len(entries) > 0; entries = entries[stride:] {
		box := entries[pagedRefBytes:stride]
		mark := len(stack)
		for _, pi := range active {
			p := &probes[pi]
			if (p.Center == nil || !p.farBoxRaw(box, dim, bounds[pi])) && (p.Box.Min == nil || intersectsRaw(box, dim, p.Box)) {
				stack = append(stack, pi)
			}
		}
		if len(stack) > mark {
			child := NodeID(binary.LittleEndian.Uint64(entries))
			todo = append(todo, pending{id: child, lo: int32(mark), hi: int32(len(stack))})
		}
	}
	d.active, d.todo = stack, todo
}

// descend runs one traversal from root for all probes and returns what it
// did. With a registry attached it counts one search
// per descent and records the rstar.search span.
func descend(s NodeStore, epoch uint64, m *treeMetrics, root NodeID, dim, height int,
	probes []Probe, emit func(int, int64), each func(Entry) bool) (ProbeCounts, error) {
	for i := range probes {
		p := &probes[i]
		if p.Box.Min == nil && p.Center == nil {
			return ProbeCounts{}, fmt.Errorf("rstar: probe %d has neither a box nor a ball", i)
		}
		if p.Box.Min != nil && p.Box.Dim() != dim {
			return ProbeCounts{}, fmt.Errorf("rstar: query has dim %d, tree has %d", p.Box.Dim(), dim)
		}
		if p.Center != nil && len(p.Center) != dim {
			return ProbeCounts{}, fmt.Errorf("rstar: probe center has dim %d, tree has %d", len(p.Center), dim)
		}
	}
	if len(probes) == 0 {
		return ProbeCounts{}, nil
	}
	var start time.Time
	if m != nil {
		start = obs.Clock()
	}
	// Only inner nodes push, each at most MaxEntries(false)+1 children
	// (the transient overflow slot included) with at most len(probes)
	// active probes apiece, and one run per level is live at a time: sized
	// to that bound, the stacks never grow during the descent.
	pendingMax := (s.MaxEntries(false) + 1) * max(height-1, 0)
	d := descent{
		store: s, epoch: epoch, probes: probes, emit: emit, each: each,
		bounds: make([]float64, len(probes)),
		active: make([]int, len(probes), len(probes)*(1+pendingMax)),
		todo:   make([]pending, 0, pendingMax),
	}
	for i := range probes {
		d.active[i] = i
		d.bounds[i] = ballBound(probes[i].Eps)
	}
	err := d.visit(root, 0, len(probes))
	if m != nil {
		m.searches.Inc()
		m.nodeVisits.Add(uint64(d.counts.Visits))
		m.reg.RecordSpan("rstar.search", 0, start, obs.Since(start),
			obs.Attr{Key: "node_visits", Value: int64(d.counts.Visits)})
	}
	return d.counts, err
}

// Probe answers every probe in one depth-first descent: emit is called
// with the probe's index and the payload of each data entry matching it.
// Per probe, entries arrive in the order that probe would find them
// searching alone; entries of different probes interleave. It returns the
// descent's counts: nodes visited and leaf entry tests.
//
// emit runs while the node being scanned is pinned (and, on a versioned
// store, under the store's read lock): it must not call back into the tree
// or its store.
func (t *Tree) Probe(probes []Probe, emit func(probe int, data int64)) (ProbeCounts, error) {
	return t.descend(probes, emit, nil)
}

func (t *Tree) descend(probes []Probe, emit func(int, int64), each func(Entry) bool) (ProbeCounts, error) {
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
	counts, err := t.descend([]Probe{{Box: q}}, nil, collectInto(&out))
	return out, counts.Visits, err
}

func collectInto(out *[]Entry) func(Entry) bool {
	return func(e Entry) bool {
		*out = append(*out, e)
		return true
	}
}

// Probe is Tree.Probe at the pinned epoch; the same contract for emit
// applies.
func (tv *TreeView) Probe(probes []Probe, emit func(probe int, data int64)) (ProbeCounts, error) {
	return tv.descend(probes, emit, nil)
}

func (tv *TreeView) descend(probes []Probe, emit func(int, int64), each func(Entry) bool) (ProbeCounts, error) {
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
	counts, err := tv.descend([]Probe{{Box: q}}, nil, collectInto(&out))
	return out, counts.Visits, err
}
