package rstar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"walrus/internal/obs"
	"walrus/internal/store"
)

// refEntry is one inserted entry as the brute-force reference remembers
// it; the reference never goes through the tree, because every Search
// flavour is now a wrapper over the descent under test.
type refEntry struct {
	rect Rect
	data int64
}

// bruteProbe is Probe's contract spelled out over a flat list: box test,
// then the euclidean test on the entry's Min corner when Center is set.
func bruteProbe(entries []refEntry, p Probe) []int64 {
	var out []int64
	for _, e := range entries {
		if !intersects(e.rect, p.Box) || (p.Center != nil && !ballKeeps(p.Center, e.rect.Min, p.Eps)) {
			continue
		}
		out = append(out, e.data)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ballKeeps is the ball test written out in full: the whole sum, then the
// square root, exactly as the query pipeline's euclid computes it.
func ballKeeps(c, point []float64, eps float64) bool {
	sum := 0.0
	for j := range c {
		d := c[j] - point[j]
		sum += d * d
	}
	return !(math.Sqrt(sum) > eps)
}

// prober is what the equivalence test drives: the live tree and its views.
type prober interface {
	Probe(probes []Probe, emit func(probe int, data int64)) (ProbeCounts, error)
}

// randomProbes draws k probes around the data's [0,1) range: boxes and
// balls of mixed radius, exact duplicates of the first probe, and probes
// parked where no entry lives.
func randomProbes(rng *rand.Rand, dim, k int) []Probe {
	probes := make([]Probe, k)
	for i := range probes {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		eps := 0.02 + 0.3*rng.Float64()
		switch {
		case i > 0 && i%5 == 0:
			probes[i] = probes[0]
			continue
		case i%7 == 3:
			for j := range c {
				c[j] += 5
			}
		}
		probes[i].Box = Point(c).Expand(eps)
		if rng.Intn(2) == 0 {
			probes[i].Center, probes[i].Eps = c, eps
		}
	}
	return probes
}

// runProbes collects what src emits per probe, in emission order.
func runProbes(t *testing.T, src prober, probes []Probe) ([][]int64, ProbeCounts) {
	t.Helper()
	got := make([][]int64, len(probes))
	counts, err := src.Probe(probes, func(pi int, data int64) { got[pi] = append(got[pi], data) })
	if err != nil {
		t.Fatal(err)
	}
	return got, counts
}

// checkProbes asserts the descent's contract on one tree or view: per
// probe, exactly the reference multiset, in exactly the order the probe
// yields alone, with a visit count between the largest and the sum of the
// single-probe counts.
func checkProbes(t *testing.T, what string, src prober, entries []refEntry, rng *rand.Rand, dim int) {
	t.Helper()
	for _, k := range []int{0, 1, 3, 40} {
		checkProbeSet(t, fmt.Sprintf("%s k=%d", what, k), src, entries, randomProbes(rng, dim, k))
	}
}

// checkProbeSet is checkProbes for one given probe set. It returns the
// visit count of the joint descent. A probe is active at a leaf exactly
// when its descent alone reaches that leaf, so the joint descent's entry
// tests are the single probes' summed, and each probe tests at least the
// entries it returns.
func checkProbeSet(t *testing.T, what string, src prober, entries []refEntry, probes []Probe) int {
	t.Helper()
	got, counts := runProbes(t, src, probes)
	visits := counts.Visits
	sumSingle, maxSingle, sumTests := 0, 0, 0
	for pi, p := range probes {
		alone, c := runProbes(t, src, []Probe{p})
		v := c.Visits
		sumSingle += v
		maxSingle = max(maxSingle, v)
		sumTests += c.EntryTests
		if c.EntryTests < len(alone[0]) {
			t.Fatalf("%s probe %d: %d entry tests for %d hits", what, pi, c.EntryTests, len(alone[0]))
		}
		if !int64SlicesEqual(got[pi], alone[0]) {
			t.Fatalf("%s probe %d: order differs from the probe run alone:\n got  %v\n want %v", what, pi, got[pi], alone[0])
		}
		sorted := append([]int64(nil), got[pi]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if want := bruteProbe(entries, p); !int64SlicesEqual(sorted, want) {
			t.Fatalf("%s probe %d: got %v, brute force says %v", what, pi, sorted, want)
		}
	}
	if visits > sumSingle || visits < maxSingle {
		t.Fatalf("%s: %d visits, single probes sum to %d with max %d", what, visits, sumSingle, maxSingle)
	}
	if counts.EntryTests != sumTests {
		t.Fatalf("%s: %d entry tests, single probes sum to %d", what, counts.EntryTests, sumTests)
	}
	return visits
}

// storeKinds are the stores the exactness tests run on, each named by its
// paged= subtest suffix: in memory, paged with box leaves, paged with point
// leaves, and in memory with point leaves (point leaves hold point entries
// only).
var storeKinds = []struct {
	name   string
	paged  bool
	leaves LeafKind
}{{"false", false, BoxLeaves}, {"true", true, BoxLeaves}, {"points", true, PointLeaves}, {"mempoints", false, PointLeaves}}

// TestProbeMatchesBruteForce is the traversal-equivalence property: point
// and box trees, grown by inserts or bulk loaded, in memory or paged behind
// a pool far smaller than the tree (with box leaves, and for point trees
// with point leaves too, in memory and paged), probed live, through a current view, and through
// a view pinned before further inserts and deletes were published — which
// makes the descent scan overlay pre-images.
func TestProbeMatchesBruteForce(t *testing.T) {
	const dim, initial, added, removed = 3, 400, 150, 100
	for _, points := range []bool{true, false} {
		for _, bulk := range []bool{false, true} {
			for _, kind := range storeKinds {
				if kind.leaves == PointLeaves && !points {
					continue // a point-leaf store holds points only
				}
				paged := kind.paged
				name := fmt.Sprintf("points=%v/bulk=%v/paged=%s", points, bulk, kind.name)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(91))
					draw := func(data int64) refEntry {
						r := randomRect(rng, dim)
						if points {
							r = Point(r.Min)
						}
						return refEntry{r, data}
					}
					var base NodeStore
					var evictions *obs.Counter
					if paged {
						ps := newPagedStore(t, dim, 1024, 8, kind.leaves)
						base, evictions = ps, poolCounter(ps, "evictions")
					} else {
						ms, err := NewMemStore(dim, 8, kind.leaves)
						if err != nil {
							t.Fatal(err)
						}
						base = ms
					}
					vs := NewVersioned(base)

					entries := make([]refEntry, initial)
					rects, data := make([]Rect, initial), make([]int64, initial)
					for i := range entries {
						entries[i] = draw(int64(i))
						rects[i], data[i] = entries[i].rect, entries[i].data
					}
					var tr *Tree
					var err error
					if bulk {
						tr, err = BulkLoad(vs, rects, data)
					} else if tr, err = New(vs); err == nil {
						for _, e := range entries {
							if err = tr.Insert(e.rect, e.data); err != nil {
								break
							}
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					tr.PublishEpoch()

					// The unversioned store under a second Tree handle covers
					// the plain MemStore / PagedStore scan paths.
					raw, err := Load(base)
					if err != nil {
						t.Fatal(err)
					}
					old, err := tr.SnapshotView()
					if err != nil {
						t.Fatal(err)
					}
					defer old.Release()
					checkProbes(t, "live", tr, entries, rng, dim)
					checkProbes(t, "raw store", raw, entries, rng, dim)
					checkProbes(t, "current view", old, entries, rng, dim)

					after := append([]refEntry(nil), entries...)
					for i := 0; i < added; i++ {
						e := draw(int64(initial + i))
						if err := tr.Insert(e.rect, e.data); err != nil {
							t.Fatal(err)
						}
						after = append(after, e)
					}
					for i := 0; i < removed; i++ {
						j := rng.Intn(len(after))
						ok, err := tr.Delete(after[j].rect, after[j].data)
						if err != nil || !ok {
							t.Fatalf("delete %d: ok=%v err=%v", after[j].data, ok, err)
						}
						after = append(after[:j], after[j+1:]...)
					}
					tr.PublishEpoch()
					if vs.Retained() == 0 {
						t.Fatal("no pre-images retained: the pinned view would not exercise the overlay")
					}
					cur, err := tr.SnapshotView()
					if err != nil {
						t.Fatal(err)
					}
					defer cur.Release()
					checkProbes(t, "pinned old view", old, entries, rng, dim)
					checkProbes(t, "live after writes", tr, after, rng, dim)
					checkProbes(t, "view after writes", cur, after, rng, dim)
					if paged {
						if evictions.Value() == 0 {
							t.Fatal("pool never evicted: the tree fits the pool and page recycling went untested")
						}
					}
				})
			}
		}
	}
}

func TestProbeValidatesDimensions(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	emit := func(int, int64) { t.Fatal("emit called for an invalid probe") }
	if _, err := tr.Probe([]Probe{{Box: Point([]float64{1, 2})}}, emit); err == nil {
		t.Error("Probe accepted a box of the wrong dimension")
	}
	if _, err := tr.Probe([]Probe{{Box: Point([]float64{1, 2, 3}), Center: []float64{1}}}, emit); err == nil {
		t.Error("Probe accepted a center of the wrong dimension")
	}
	if _, err := tr.Probe([]Probe{{Center: []float64{1}, Eps: 1}}, emit); err == nil {
		t.Error("Probe accepted a ball-only probe of the wrong dimension")
	}
	if _, err := tr.Probe([]Probe{{Eps: 1}}, emit); err == nil {
		t.Error("Probe accepted a probe with neither a box nor a ball")
	}
}

// newPagedStore is a PagedStore with the given leaf kind for
// dim-dimensional entries on a fresh page file of pageSize pages, behind a
// pool of frames frames.
// createPager creates a page file at path, truncating any existing file.
func createPager(path string, pageSize int) (*store.Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	pg, err := store.CreateFile(f, pageSize)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return pg, nil
}

// openPager opens the page file at path.
func openPager(path string) (*store.Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	pg, err := store.OpenFile(f)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return pg, nil
}

// poolCounter attaches a fresh registry to ps's buffer pool and returns
// its walrus_bufpool_<name>_total counter, which counts what the pool
// does from then on.
func poolCounter(ps *PagedStore, name string) *obs.Counter {
	reg := obs.NewRegistry()
	ps.pool.SetMetrics(reg)
	return reg.Counter("walrus_bufpool_"+name+"_total", "")
}

func newPagedStore(tb testing.TB, dim, pageSize, frames int, leaves LeafKind) *PagedStore {
	tb.Helper()
	pg, err := createPager(filepath.Join(tb.TempDir(), "tree.db"), pageSize)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pg.Close() })
	pool, err := store.NewBufferPool(pg, frames)
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := NewPagedStore(pg, pool, dim, leaves)
	if err != nil {
		tb.Fatal(err)
	}
	return ps
}

// clusteredPoints draws n dim-dimensional points around k random centres,
// each coordinate spread by a normal of deviation sigma: clustered, as
// region signatures are (uniform 12-d points give every node a box
// spanning the cube, and nothing prunes).
func clusteredPoints(rng *rand.Rand, dim, k, n int, sigma float64) (centers, pts [][]float64) {
	centers, pts = make([][]float64, k), make([][]float64, n)
	for i := range centers {
		centers[i] = randomRect(rng, dim).Min
	}
	for i := range pts {
		c, p := centers[i%k], make([]float64, dim)
		for j := range p {
			p[j] = c[j] + sigma*rng.NormFloat64()
		}
		pts[i] = p
	}
	return centers, pts
}

// pagedBulkTree bulk-loads n random points into a paged tree of pageSize
// pages with the given leaf kind whose pool holds poolPages frames,
// flushes it, and returns the tree, its store and the page file's path.
func pagedBulkTree(tb testing.TB, pageSize, dim, n, poolPages int, leaves LeafKind) (*Tree, *PagedStore, string) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = randomRect(rng, dim).Min
	}
	return pagedPointTree(tb, pageSize, dim, poolPages, pts, leaves)
}

// pagedPointTree is pagedBulkTree over the given points.
func pagedPointTree(tb testing.TB, pageSize, dim, poolPages int, pts [][]float64, leaves LeafKind) (*Tree, *PagedStore, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "tree.db")
	pg, err := createPager(path, pageSize)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pg.Close() })
	pool, err := store.NewBufferPool(pg, poolPages)
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := NewPagedStore(pg, pool, dim, leaves)
	if err != nil {
		tb.Fatal(err)
	}
	rects, data := make([]Rect, len(pts)), make([]int64, len(pts))
	for i, p := range pts {
		rects[i], data[i] = Point(p), int64(i)
	}
	tr, err := BulkLoad(ps, rects, data)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ps.Flush(); err != nil {
		tb.Fatal(err)
	}
	return tr, ps, path
}

// threeProbes are ball probes of radius eps around three fixed centers.
func threeProbes(dim int, eps float64) []Probe {
	probes := make([]Probe, 3)
	for i := range probes {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 0.25 + 0.2*float64(i)
		}
		probes[i] = Probe{Box: Point(c).Expand(eps), Center: c, Eps: eps}
	}
	return probes
}

// boxOnly strips the centers off probes, leaving the box test alone.
func boxOnly(probes []Probe) []Probe {
	out := make([]Probe, len(probes))
	for i, p := range probes {
		out[i] = Probe{Box: p.Box}
	}
	return out
}

// TestProbePagedAllocations pins the point of scanning pages in place: a
// search's allocations are the descent's stacks and a closure or two,
// however many nodes it visits, for box-only and ball probes alike, on
// every store kind. Paged trees run over box leaves and over point leaves
// (which get more points, to make as many nodes), behind a pool that holds
// the whole tree so the count is the traversal's alone (a miss allocates
// its Frame header). In-memory trees run bare, with each leaf kind, and
// through a view of a versioned store pinned across inserts, deletes and
// Publish, whose descent scans overlay pre-images.
func TestProbePagedAllocations(t *testing.T) {
	for _, leaves := range []LeafKind{BoxLeaves, PointLeaves} {
		n := 4000
		if leaves == PointLeaves {
			n = 7000
		}
		tr, ps, _ := pagedBulkTree(t, 1024, 3, n, 512, leaves)
		checkProbeAllocations(t, fmt.Sprintf("paged/points=%v", ps.points), tr, nodeCount(t, tr))
	}
	rng := rand.New(rand.NewSource(5))
	rects, data := make([]Rect, 3000), make([]int64, 3000)
	for i := range rects {
		rects[i], data[i] = Point(randomRect(rng, 3).Min), int64(i)
	}
	for _, leaves := range []LeafKind{BoxLeaves, PointLeaves} {
		ms, err := NewMemStore(3, 8, leaves)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := BulkLoad(ms, rects, data)
		if err != nil {
			t.Fatal(err)
		}
		checkProbeAllocations(t, fmt.Sprintf("mem/points=%v", ms.points), tr, liveNodes(ms))
	}

	ms, err := NewMemStore(3, 8, PointLeaves)
	if err != nil {
		t.Fatal(err)
	}
	vs := NewVersioned(ms)
	tr, err := BulkLoad(vs, rects, data)
	if err != nil {
		t.Fatal(err)
	}
	tr.PublishEpoch()
	view, err := tr.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	for i := 0; i < 500; i++ {
		if err := tr.Insert(Point(randomRect(rng, 3).Min), int64(len(rects)+i)); err != nil {
			t.Fatal(err)
		}
		if ok, err := tr.Delete(rects[i], data[i]); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	tr.PublishEpoch()
	if vs.Retained() < 100 {
		t.Fatalf("%d pre-images retained: the pinned view would barely read the overlay", vs.Retained())
	}
	checkProbeAllocations(t, "pinned view", view, liveNodes(ms))
}

// nodeCount counts the nodes of tr.
func nodeCount(t *testing.T, tr *Tree) int {
	n := 0
	for _, level := range levelSizes(t, tr) {
		n += len(level)
	}
	return n
}

// liveNodes counts the nodes s holds: every page not freed.
func liveNodes(s *MemStore) int {
	n := 0
	for _, page := range s.pages {
		if page != nil {
			n++
		}
	}
	return n
}

func checkProbeAllocations(t *testing.T, what string, src prober, nodes int) {
	t.Helper()
	if nodes < 200 {
		t.Fatalf("%s: tree has %d nodes, want >= 200", what, nodes)
	}
	emitted := 0
	emit := func(int, int64) { emitted++ }
	perRun := func(probes []Probe) (allocs float64, visits int) {
		allocs = testing.AllocsPerRun(20, func() {
			c, err := src.Probe(probes, emit)
			if err != nil {
				t.Fatal(err)
			}
			visits = c.Visits
		})
		return allocs, visits
	}
	for _, ball := range []bool{false, true} {
		probes := func(eps float64) []Probe {
			if ball {
				return threeProbes(3, eps)
			}
			return boxOnly(threeProbes(3, eps))
		}
		narrowAllocs, narrowVisits := perRun(probes(0.01))
		wideAllocs, wideVisits := perRun(probes(0.4))
		if wideVisits < 100 || wideVisits < 10*narrowVisits {
			t.Fatalf("%s ball=%v: wide probes visited %d nodes, narrow %d: not a useful contrast", what, ball, wideVisits, narrowVisits)
		}
		if wideAllocs != narrowAllocs || wideAllocs > 4 {
			t.Fatalf("%s ball=%v: allocations grew with the nodes visited or are not small: %v for %d visits, %v for %d",
				what, ball, wideAllocs, wideVisits, narrowAllocs, narrowVisits)
		}
	}
	if emitted == 0 {
		t.Fatalf("%s: probes matched nothing", what)
	}
}

// Probe is TreeView.Probe on the tree's current state, for tests that
// probe a tree without pinning a view.
func (t *Tree) Probe(probes []Probe, emit func(probe int, data int64)) (ProbeCounts, error) {
	return t.descend(probes, emit, nil)
}
