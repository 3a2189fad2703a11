package rstar

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"walrus/internal/obs"
	"walrus/internal/store"
)

// cubeEdgePoints are, for a centre of 0.1 on every axis and the working
// ε = 0.085, the points one ulp below the ε-cube's lower edge on one axis
// each. 0.1 − 0.085 is no Sterbenz case, so the edge Rect.Expand computes
// is rounded: the point lies outside the cube, yet its distance to the
// centre rounds to exactly ε, and euclid keeps it.
func cubeEdgePoints(dim int) (c []float64, eps float64, pts [][]float64) {
	c, eps = make([]float64, dim), 0.085
	for j := range c {
		c[j] = 0.1
	}
	for k := range c {
		p := append([]float64(nil), c...)
		p[k] = math.Nextafter(0.1-eps, 0)
		pts = append(pts, p)
	}
	return c, eps, pts
}

// checkBallOnly asserts that every probe emits exactly the entries whose
// point ballKeeps, with nothing else deciding.
func checkBallOnly(t *testing.T, what string, src prober, entries []refEntry, probes []Probe) {
	t.Helper()
	got, _ := runProbes(t, src, probes)
	for pi, p := range probes {
		var want []int64
		for _, e := range entries {
			if ballKeeps(p.Center, e.rect.Min, p.Eps) {
				want = append(want, e.data)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sorted := append([]int64(nil), got[pi]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if !int64SlicesEqual(sorted, want) {
			t.Fatalf("%s probe %d (eps %v): got %d entries %v, euclid keeps %d: %v", what, pi, p.Eps, len(sorted), sorted, len(want), want)
		}
	}
}

// TestProbeBallMatchesEuclid pins the rule the query pipeline probes
// with: a probe with a ball and no box emits exactly the entries within
// euclidean distance ε of its centre — ballKeeps, euclid's expression —
// on 12-d trees of every store kind (in memory and paged, box and point
// leaves, live, through the raw store, and through a versioned view
// pinned across inserts and deletes). The data hold ballPoints' ulp
// shells and, on every axis, a point one ulp below the ε-cube's rounded
// edge. The cube companion shows why the probe carries no cube: a probe
// boxed by Point(c).Expand(ε) drops those points, which euclid keeps.
func TestProbeBallMatchesEuclid(t *testing.T) {
	const dim = 12
	rng := rand.New(rand.NewSource(43))
	c1, c0, pts := ballPoints(rng, dim)
	edgeC, edgeEps, edge := cubeEdgePoints(dim)
	for _, p := range edge {
		if !ballKeeps(edgeC, p, edgeEps) {
			t.Fatalf("euclid drops %v: the cube-edge point no longer tests the boundary", p)
		}
		if intersects(Point(p), Point(edgeC).Expand(edgeEps)) {
			t.Fatalf("the ε-cube holds %v: the cube-edge point no longer tests the boundary", p)
		}
	}
	firstEdge := len(pts)
	pts = append(pts, edge...)

	var probes []Probe
	for _, c := range [][]float64{c1, c0} {
		for _, eps := range ballEpsilons {
			probes = append(probes, Probe{Center: c, Eps: eps})
		}
	}
	probes = append(probes, Probe{Center: edgeC, Eps: edgeEps})
	for i := 0; i < 4; i++ {
		probes = append(probes, Probe{Center: pts[rng.Intn(len(pts))], Eps: 0.085})
	}

	entries := make([]refEntry, len(pts))
	rects, data := make([]Rect, len(pts)), make([]int64, len(pts))
	for i, q := range pts {
		entries[i] = refEntry{Point(q), int64(i)}
		rects[i], data[i] = entries[i].rect, entries[i].data
	}
	initial := 2 * len(entries) / 3
	for _, kind := range storeKinds {
		t.Run("paged="+kind.name, func(t *testing.T) {
			var base NodeStore
			var evictions *obs.Counter
			if kind.paged {
				ps := newPagedStore(t, dim, store.DefaultPageSize, 8, kind.leaves)
				base, evictions = ps, poolCounter(ps, "evictions")
			} else {
				ms, err := NewMemStore(dim, 16, kind.leaves)
				if err != nil {
					t.Fatal(err)
				}
				base = ms
			}
			vs := NewVersioned(base)
			tr, err := BulkLoad(vs, rects[:initial], data[:initial])
			if err != nil {
				t.Fatal(err)
			}
			tr.PublishEpoch()
			raw, err := Load(base)
			if err != nil {
				t.Fatal(err)
			}
			old, err := tr.SnapshotView()
			if err != nil {
				t.Fatal(err)
			}
			defer old.Release()
			before := entries[:initial:initial]
			checkBallOnly(t, "live", tr, before, probes)
			checkBallOnly(t, "raw store", raw, before, probes)

			after := append([]refEntry(nil), before...)
			for _, e := range entries[initial:] {
				if err := tr.Insert(e.rect, e.data); err != nil {
					t.Fatal(err)
				}
				after = append(after, e)
			}
			for i := 0; i < initial/4; i++ {
				j := rng.Intn(firstEdge) // keep every cube-edge point
				k := sort.Search(len(after), func(k int) bool { return after[k].data >= int64(j) })
				if k == len(after) || after[k].data != int64(j) {
					continue // deleted already, or not loaded yet
				}
				if ok, err := tr.Delete(after[k].rect, after[k].data); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", j, ok, err)
				}
				after = append(after[:k], after[k+1:]...)
			}
			tr.PublishEpoch()
			if vs.Retained() == 0 {
				t.Fatal("no pre-images retained: the pinned view would not exercise the overlay")
			}
			checkBallOnly(t, "pinned old view", old, before, probes)
			checkBallOnly(t, "live after writes", tr, after, probes)
			if kind.paged {
				if evictions.Value() == 0 {
					t.Fatal("pool never evicted: the tree fits the pool")
				}
			}

			// The cube companion: the ε-cube beside the ball, as the query
			// pipeline once probed, drops every cube-edge point.
			cube := Probe{Box: Point(edgeC).Expand(edgeEps), Center: edgeC, Eps: edgeEps}
			got, _ := runProbes(t, tr, []Probe{cube, {Center: edgeC, Eps: edgeEps}})
			edgeHits := func(hits []int64) int {
				n := 0
				for _, d := range hits {
					if d >= int64(firstEdge) {
						n++
					}
				}
				return n
			}
			if c, b := edgeHits(got[0]), edgeHits(got[1]); c != 0 || b != len(edge) {
				t.Fatalf("of the %d cube-edge points the cube and ball emit %d (want 0), the ball alone %d (want all)", len(edge), c, b)
			}
		})
	}
}

// TestPagedStoreChecksOncePerResidence pins the paged store's trust
// boundary. A frame's node CRC is verified once while it stays resident:
// a resident, checked frame whose bytes change behind the pool's back (no
// dirty unpin) is scanned without a CRC pass, so the change goes unseen.
// One dirty write re-arms the check, and the next scan reports the
// mismatch. The entry-count bound is checked on every scan regardless.
func TestPagedStoreChecksOncePerResidence(t *testing.T) {
	tr, ps, _ := pagedBulkTree(t, 1024, 3, 600, 512, PointLeaves)
	evictions := poolCounter(ps, "evictions")
	if _, err := tr.SearchAll(everything(3)); err != nil {
		t.Fatal(err) // admits and checks every page
	}
	n, err := ps.Get(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	for !n.Leaf {
		if n, err = ps.Get(n.Entries[0].Child); err != nil {
			t.Fatal(err)
		}
	}
	touch := func(dirty bool, edit func([]byte)) {
		t.Helper()
		f, err := ps.pool.Get(store.PageID(n.ID))
		if err != nil {
			t.Fatal(err)
		}
		edit(f.Data)
		ps.pool.Unpin(f, dirty)
	}
	search := func() error {
		_, err := tr.SearchAll(everything(3))
		return err
	}

	const entryByte = pagedHeader + pagedRefBytes + 3 // inside the first entry's point
	touch(false, func(b []byte) { b[entryByte] ^= 0xFF })
	if err := search(); err != nil {
		t.Fatalf("a checked resident frame was checked again: %v", err)
	}
	touch(true, func([]byte) {})
	if err := search(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("after a dirty write the scan must verify the CRC again, got %v", err)
	}
	touch(true, func(b []byte) { b[entryByte] ^= 0xFF }) // restore
	if err := search(); err != nil {
		t.Fatalf("restored page: %v", err)
	}
	touch(false, func(b []byte) { b[1], b[2] = 0xFF, 0xFF }) // entry count 65535
	if err := search(); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("a checked frame's entry count must be bounded on every scan, got %v", err)
	}
	if n := evictions.Value(); n != 0 {
		t.Fatalf("pool evicted %d frames: the test needs every page resident", n)
	}
}
