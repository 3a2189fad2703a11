package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

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
		if !e.rect.Intersects(p.Box) {
			continue
		}
		if p.Center != nil {
			sum := 0.0
			for j := range p.Center {
				d := p.Center[j] - e.rect.Min[j]
				sum += d * d
			}
			if math.Sqrt(sum) > p.Eps {
				continue
			}
		}
		out = append(out, e.data)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// prober is what the equivalence test drives: the live tree and its views.
type prober interface {
	Probe(probes []Probe, emit func(probe int, data int64)) (int, error)
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
func runProbes(t *testing.T, src prober, probes []Probe) ([][]int64, int) {
	t.Helper()
	got := make([][]int64, len(probes))
	visits, err := src.Probe(probes, func(pi int, data int64) { got[pi] = append(got[pi], data) })
	if err != nil {
		t.Fatal(err)
	}
	return got, visits
}

// checkProbes asserts the descent's contract on one tree or view: per
// probe, exactly the reference multiset, in exactly the order the probe
// yields alone, with a visit count between the largest and the sum of the
// single-probe counts.
func checkProbes(t *testing.T, what string, src prober, entries []refEntry, rng *rand.Rand, dim int) {
	t.Helper()
	for _, k := range []int{0, 1, 3, 40} {
		probes := randomProbes(rng, dim, k)
		got, visits := runProbes(t, src, probes)
		sumSingle, maxSingle := 0, 0
		for pi, p := range probes {
			alone, v := runProbes(t, src, []Probe{p})
			sumSingle += v
			maxSingle = max(maxSingle, v)
			if !int64SlicesEqual(got[pi], alone[0]) {
				t.Fatalf("%s k=%d probe %d: order differs from the probe run alone:\n got  %v\n want %v", what, k, pi, got[pi], alone[0])
			}
			sorted := append([]int64(nil), got[pi]...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if want := bruteProbe(entries, p); !int64SlicesEqual(sorted, want) {
				t.Fatalf("%s k=%d probe %d: got %v, brute force says %v", what, k, pi, sorted, want)
			}
		}
		if visits > sumSingle || visits < maxSingle {
			t.Fatalf("%s k=%d: %d visits, single probes sum to %d with max %d", what, k, visits, sumSingle, maxSingle)
		}
	}
}

// TestProbeMatchesBruteForce is the traversal-equivalence property: point
// and box trees, grown by inserts or bulk loaded, in memory or paged behind
// a pool far smaller than the tree, probed live, through a current view,
// and through a view pinned before further inserts and deletes were
// published — which makes the descent scan overlay pre-images.
func TestProbeMatchesBruteForce(t *testing.T) {
	const dim, initial, added, removed = 3, 400, 150, 100
	for _, points := range []bool{true, false} {
		for _, bulk := range []bool{false, true} {
			for _, paged := range []bool{false, true} {
				name := fmt.Sprintf("points=%v/bulk=%v/paged=%v", points, bulk, paged)
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
					if paged {
						pg, err := store.Create(filepath.Join(t.TempDir(), "tree.db"), 1024)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { pg.Close() })
						pool, err := store.NewBufferPool(pg, 8)
						if err != nil {
							t.Fatal(err)
						}
						if base, err = NewPagedStore(pg, pool, dim); err != nil {
							t.Fatal(err)
						}
					} else {
						ms, err := NewMemStore(dim, 8)
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
						if st := base.(*PagedStore).pool.Stats(); st.Evictions == 0 {
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
}

// pagedBulkTree bulk-loads n random points into a paged tree of pageSize
// pages whose pool
// holds poolPages frames, flushes it, and returns the tree, its store and
// the page file's path.
func pagedBulkTree(tb testing.TB, pageSize, dim, n, poolPages int) (*Tree, *PagedStore, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "tree.db")
	pg, err := store.Create(path, pageSize)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pg.Close() })
	pool, err := store.NewBufferPool(pg, poolPages)
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := NewPagedStore(pg, pool, dim)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rects, data := make([]Rect, n), make([]int64, n)
	for i := range rects {
		rects[i], data[i] = Point(randomRect(rng, dim).Min), int64(i)
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

// TestProbePagedAllocations pins the point of scanning pages in place: a
// paged search's allocations are the descent's two stacks and a closure or
// two, however many nodes it visits. The pool holds the whole tree so the
// count is the traversal's alone (a miss allocates its Frame header).
func TestProbePagedAllocations(t *testing.T) {
	tr, ps, _ := pagedBulkTree(t, 1024, 3, 4000, 512)
	if nodes := ps.pg.NumPages() - 1; nodes < 200 {
		t.Fatalf("tree has %d nodes, want >= 200", nodes)
	}
	emitted := 0
	emit := func(int, int64) { emitted++ }
	perRun := func(probes []Probe) (allocs float64, visits int) {
		allocs = testing.AllocsPerRun(20, func() {
			v, err := tr.Probe(probes, emit)
			if err != nil {
				t.Fatal(err)
			}
			visits = v
		})
		return allocs, visits
	}
	narrowAllocs, narrowVisits := perRun(threeProbes(3, 0.01))
	wideAllocs, wideVisits := perRun(threeProbes(3, 0.4))
	if wideVisits < 100 || wideVisits < 10*narrowVisits {
		t.Fatalf("wide probes visited %d nodes, narrow %d: not a useful contrast", wideVisits, narrowVisits)
	}
	if emitted == 0 {
		t.Fatal("probes matched nothing")
	}
	if wideAllocs != narrowAllocs || wideAllocs > 4 {
		t.Fatalf("allocations grew with the nodes visited or are not small: %v for %d visits, %v for %d",
			wideAllocs, wideVisits, narrowAllocs, narrowVisits)
	}
}
