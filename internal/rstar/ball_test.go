package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"walrus/internal/store"
)

// ballEpsilons are the radii the exactness test probes with: WALRUS's
// working ε beside every boundary case of ballBound — zero of both signs,
// subnormals, a radius whose square overflows, infinities, NaN and a
// negative radius.
var ballEpsilons = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1040, 0.085, 1e200,
	math.Inf(1), math.NaN(), -0.085, math.Inf(-1),
}

// boundaryPair finds, on axis k from base toward dir, two points one ulp
// apart whose first lies inside the ball of radius eps around c and whose
// second lies outside, by the full ball test. ok is false when no such
// pair exists on that line (base already outside, or nothing outside).
func boundaryPair(c, base []float64, k int, dir, eps float64) (in, out []float64, ok bool) {
	q := append([]float64(nil), base...)
	at := func(v float64) bool {
		q[k] = v
		return ballKeeps(c, q, eps)
	}
	inV, outV := c[k], c[k]+dir
	if !at(inV) || at(outV) {
		return nil, nil, false
	}
	for {
		mid := inV + (outV-inV)/2
		if mid == inV || mid == outV {
			break
		}
		if at(mid) {
			inV = mid
		} else {
			outV = mid
		}
	}
	in, out = append([]float64(nil), base...), append([]float64(nil), base...)
	in[k], out[k] = inV, outV
	return in, out, true
}

// shellPoints returns points hugging the sphere of radius eps around c:
// for every axis and direction a last-inside / first-outside pair, on the
// pole itself and off it (the other axes offset by ±eps/2), and for each
// outside point a companion pushed further out on every axis, so an MBR
// of the two has the outside point as its corner nearest c.
func shellPoints(c []float64, eps float64) [][]float64 {
	var pts [][]float64
	for k := range c {
		for _, dir := range []float64{-1, 1} {
			for _, off := range []float64{0, eps / 2, -eps / 2} {
				base := append([]float64(nil), c...)
				for j := range base {
					if j != k {
						base[j] += off
					}
				}
				in, out, ok := boundaryPair(c, base, k, dir, eps)
				if !ok {
					continue
				}
				far := append([]float64(nil), out...)
				for j := range far {
					far[j] += math.Copysign(0.02, out[j]-c[j])
				}
				pts = append(pts, in, out, far)
			}
		}
	}
	return pts
}

// ballPoints is the exactness test's data: shells one ulp either side of
// the radius-0.085 and radius-0 spheres around c1 and of the sphere where
// squared differences stop underflowing around the origin c0, points a
// few ulps from c0, uniform background points, and duplicates.
func ballPoints(rng *rand.Rand, dim int) (c1, c0 []float64, pts [][]float64) {
	c1, c0 = make([]float64, dim), make([]float64, dim)
	for j := range c1 {
		c1[j] = 0.3 + 0.13*float64(j)
	}
	pts = append(pts, shellPoints(c1, 0.085)...)
	pts = append(pts, shellPoints(c1, 0)...)
	pts = append(pts, shellPoints(c0, math.SmallestNonzeroFloat64)...)
	for i := 0; i < 300; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	for i := 0; i < 40; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = (2*rng.Float64() - 1) * 3e-162
		}
		pts = append(pts, p)
	}
	pts = append(pts, c1, c0)
	for i, n := 0, len(pts); i < n; i += 3 {
		pts = append(pts, pts[i])
	}
	return c1, c0, pts
}

// ballProbes probes around both centers at every radius of ballEpsilons,
// once with the ε-cube as the box (the query pipeline's shape) and once
// with a box holding everything (so the ball prunes alone), plus a few
// probes centred on data points.
func ballProbes(rng *rand.Rand, c1, c0 []float64, pts [][]float64) []Probe {
	dim := len(c1)
	var probes []Probe
	for _, c := range [][]float64{c1, c0} {
		for _, eps := range ballEpsilons {
			probes = append(probes,
				Probe{Box: Point(c).Expand(eps), Center: c, Eps: eps},
				Probe{Box: everything(dim), Center: c, Eps: eps})
		}
	}
	for i := 0; i < 4; i++ {
		c := pts[rng.Intn(len(pts))]
		probes = append(probes, Probe{Box: Point(c).Expand(0.085), Center: c, Eps: 0.085})
	}
	return probes
}

// rawRect is a rectangle in page form: dim mins, then dim maxs.
func rawRect(lo, hi []float64) []byte {
	b := make([]byte, 16*len(lo))
	for j := range lo {
		binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(lo[j]))
		binary.LittleEndian.PutUint64(b[8*(len(lo)+j):], math.Float64bits(hi[j]))
	}
	return b
}

// descentRoot is where src's descent starts: its store, the epoch it
// resolves nodes at, and its root.
func descentRoot(t *testing.T, src prober) (NodeStore, uint64, NodeID) {
	t.Helper()
	switch v := src.(type) {
	case *Tree:
		return v.store, math.MaxUint64, v.root
	case *TreeView:
		return v.vs, v.epoch, v.root
	}
	t.Fatalf("no descent root for %T", src)
	return nil, 0, 0
}

// nodeAt reads node id as a descent at epoch resolves it.
func nodeAt(t *testing.T, s NodeStore, epoch uint64, id NodeID) *Node {
	t.Helper()
	if vs, ok := s.(*VersionedStore); ok {
		for _, ver := range vs.overlay[id] {
			if ver.supersededAt > epoch {
				return vs.lay.decode(id, ver.page)
			}
		}
		s = vs.base
	}
	n, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// boxWalk counts the nodes a box-only descent visits — the node, and every
// child whose entry intersects a box that reached the node — over decoded
// nodes, independently of the scan kernels.
func boxWalk(t *testing.T, s NodeStore, epoch uint64, id NodeID, boxes []Rect) int {
	t.Helper()
	n := nodeAt(t, s, epoch, id)
	visits := 1
	if n.Leaf {
		return visits
	}
	for _, e := range n.Entries {
		var reach []Rect
		for _, b := range boxes {
			if e.Rect.Intersects(b) {
				reach = append(reach, b)
			}
		}
		if len(reach) > 0 {
			visits += boxWalk(t, s, epoch, e.Child, reach)
		}
	}
	return visits
}

// checkBallPruning asserts the pruning contract on one tree or view: ball
// probes emit the brute-force box∧ball set in solo order; together and
// alone they visit no more nodes than the same probes without a center;
// and those box-only probes visit exactly the nodes the box-only walk
// reaches. It reports whether the ball saved any visit.
func checkBallPruning(t *testing.T, what string, src prober, entries []refEntry, probes []Probe) bool {
	t.Helper()
	visits := checkProbeSet(t, what, src, entries, probes)
	boxes := make([]Rect, len(probes))
	for i, p := range probes {
		boxes[i] = p.Box
	}
	box := boxOnly(probes)
	boxVisits := checkProbeSet(t, what+" box-only", src, entries, box)
	s, epoch, root := descentRoot(t, src)
	if walk := boxWalk(t, s, epoch, root, boxes); boxVisits != walk {
		t.Fatalf("%s: box-only probes visited %d nodes, the box walk reaches %d", what, boxVisits, walk)
	}
	if visits > boxVisits {
		t.Fatalf("%s: ball probes visited %d nodes, box-only %d", what, visits, boxVisits)
	}
	saved := visits < boxVisits
	for pi, p := range probes {
		_, ballCounts := runProbes(t, src, []Probe{p})
		_, boxCounts := runProbes(t, src, box[pi:pi+1])
		ball, alone := ballCounts.Visits, boxCounts.Visits
		if ball > alone {
			t.Fatalf("%s probe %d (eps %v): ball visited %d nodes, box-only %d", what, pi, p.Eps, ball, alone)
		}
		saved = saved || ball < alone
	}
	return saved
}

// TestProbeBallPruningExact proves that pruning by the ball changes which
// nodes a descent visits and nothing else. ballBound must agree with the
// square-root test at every radius; MINDIST must never reject a rectangle
// holding a point the leaf keeps; and over shells one ulp either side of
// the sphere, duplicates and MBR corners on the sphere, every store kind —
// MemStore, PagedStore behind an 8-frame pool, a VersionedStore view
// pinned across inserts, deletes and Publish — emits exactly the
// brute-force set in solo order while visiting no more nodes than the box
// alone. The same holds on trees BulkLoad packs from clustered 12-d points
// at node capacities 16 and 19, in memory and paged, and on the 4 KiB
// point-leaf store's 19 and 38. Paged and in-memory stores run with box
// and with point leaves. The raw ball tests are checked against the
// square-root oracle alone: they are the only ones.
func TestProbeBallPruningExact(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(17))

	t.Run("bound", func(t *testing.T) {
		for _, eps := range ballEpsilons {
			bound := ballBound(eps)
			sums := []float64{0, bound, math.Nextafter(bound, math.Inf(1)), math.Nextafter(bound, math.Inf(-1)),
				eps * eps, math.Nextafter(eps*eps, 0), math.Nextafter(eps*eps, math.Inf(1)),
				math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN()}
			for i := 0; i < 500; i++ {
				sums = append(sums, math.Ldexp(rng.Float64(), rng.Intn(2100)-1075))
			}
			for _, x := range sums {
				if x < 0 {
					continue // a sum of squares never is
				}
				if (x > bound) != (math.Sqrt(x) > eps) {
					t.Errorf("eps %v: bound %v: sum %v > bound is %v, sqrt test says %v",
						eps, bound, x, x > bound, math.Sqrt(x) > eps)
				}
			}
		}
	})

	c1, c0, pts := ballPoints(rng, dim)
	probes := ballProbes(rng, c1, c0, pts)

	t.Run("mindist", func(t *testing.T) {
		for _, q := range pts {
			raw := rawRect(q, q)
			for pi := range probes {
				p := &probes[pi]
				bound := ballBound(p.Eps)
				far := !ballKeeps(p.Center, q, p.Eps)
				if p.farPointRaw(raw, bound) != far || p.farBoxRaw(raw, dim, bound) != far {
					t.Fatalf("probe %d (eps %v) point %v: early-exit tests disagree with the full test (far=%v)", pi, p.Eps, q, far)
				}
			}
		}
		rejected := 0
		for trial := 0; trial < 4000; trial++ {
			// Neighbouring points are shell pairs and their companions; a
			// random pick mixes in the rest.
			n, at := 1+rng.Intn(4), rng.Intn(len(pts))
			group := make([][]float64, n)
			for i := range group {
				if trial%2 == 0 {
					group[i] = pts[(at+i)%len(pts)]
				} else {
					group[i] = pts[rng.Intn(len(pts))]
				}
			}
			lo, hi := append([]float64(nil), group[0]...), append([]float64(nil), group[0]...)
			for _, q := range group[1:] {
				for j := range q {
					lo[j], hi[j] = math.Min(lo[j], q[j]), math.Max(hi[j], q[j])
				}
			}
			raw := rawRect(lo, hi)
			for pi := range probes {
				p := &probes[pi]
				if !p.farBoxRaw(raw, dim, ballBound(p.Eps)) {
					continue
				}
				rejected++
				for _, q := range group {
					if ballKeeps(p.Center, q, p.Eps) {
						t.Fatalf("probe %d (eps %v) rejects MBR [%v, %v] holding %v, which the leaf keeps", pi, p.Eps, lo, hi, q)
					}
				}
			}
		}
		if rejected == 0 {
			t.Fatal("MINDIST rejected no rectangle: the property went untested")
		}
	})

	entries := make([]refEntry, len(pts))
	for i, q := range pts {
		entries[i] = refEntry{Point(q), int64(i)}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	initial := 2 * len(entries) / 3
	pruned := false
	for _, kind := range storeKinds {
		paged := kind.paged
		t.Run("paged="+kind.name, func(t *testing.T) {
			var base NodeStore
			if paged {
				base = newPagedStore(t, dim, 1024, 8, kind.leaves)
			} else {
				ms, err := NewMemStore(dim, 4, kind.leaves)
				if err != nil {
					t.Fatal(err)
				}
				base = ms
			}
			vs := NewVersioned(base)
			tr, err := New(vs)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries[:initial] {
				if err := tr.Insert(e.rect, e.data); err != nil {
					t.Fatal(err)
				}
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
			pruned = checkBallPruning(t, "raw store", raw, before, probes) || pruned
			pruned = checkBallPruning(t, "live", tr, before, probes) || pruned

			after := append([]refEntry(nil), before...)
			for _, e := range entries[initial:] {
				if err := tr.Insert(e.rect, e.data); err != nil {
					t.Fatal(err)
				}
				after = append(after, e)
			}
			for i := 0; i < initial/4; i++ {
				j := rng.Intn(len(after))
				if ok, err := tr.Delete(after[j].rect, after[j].data); err != nil || !ok {
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
			pruned = checkBallPruning(t, "pinned old view", old, before, probes) || pruned
			pruned = checkBallPruning(t, "live after writes", tr, after, probes) || pruned
			pruned = checkBallPruning(t, "view after writes", cur, after, probes) || pruned
			if paged {
				if st := base.(*PagedStore).pool.Stats(); st.Evictions == 0 {
					t.Fatal("pool never evicted: the tree fits the pool")
				}
			}
		})
	}

	// Packed trees, as BuildFrom and CreateFrom build them: BulkLoad over
	// clustered 12-d points plus the shells, at the in-memory node
	// capacity 16 and the 4 KiB page's 19.
	const packedDim = 12
	c1, c0, pts = ballPoints(rng, packedDim)
	centers, clustered := clusteredPoints(rng, packedDim, 40, 2000, 0.05)
	pts = append(pts, clustered...)
	probes = ballProbes(rng, c1, c0, pts)
	for _, c := range centers[:10] {
		probes = append(probes, Probe{Box: Point(c).Expand(0.085), Center: c, Eps: 0.085})
	}
	packed := make([]refEntry, len(pts))
	rects, data := make([]Rect, len(pts)), make([]int64, len(pts))
	for i, q := range pts {
		packed[i] = refEntry{Point(q), int64(i)}
		rects[i], data[i] = packed[i].rect, packed[i].data
	}
	for _, capacity := range []int{16, 19} {
		for _, kind := range storeKinds {
			if kind.paged && kind.leaves == PointLeaves {
				continue // a 4 KiB page's capacities, below
			}
			t.Run(fmt.Sprintf("packed/cap=%d/paged=%s", capacity, kind.name), func(t *testing.T) {
				var base NodeStore
				if kind.paged {
					base = newPagedStore(t, packedDim, store.PageFooterSize+pagedHeader+(capacity+1)*(pagedRefBytes+16*packedDim), 8, BoxLeaves)
				} else {
					ms, err := NewMemStore(packedDim, capacity, kind.leaves)
					if err != nil {
						t.Fatal(err)
					}
					base = ms
				}
				if base.MaxEntries(true) != capacity || base.MaxEntries(false) != capacity {
					t.Fatalf("store capacities %d (leaf), %d (inner), want %d", base.MaxEntries(true), base.MaxEntries(false), capacity)
				}
				tr, err := BulkLoad(NewVersioned(base), rects, data)
				if err != nil {
					t.Fatal(err)
				}
				tr.PublishEpoch()
				view, err := tr.SnapshotView()
				if err != nil {
					t.Fatal(err)
				}
				defer view.Release()
				pruned = checkBallPruning(t, "packed live", tr, packed, probes) || pruned
				pruned = checkBallPruning(t, "packed view", view, packed, probes) || pruned
			})
		}
	}
	// The same points packed into a 4 KiB point-leaf store: 19 entries
	// per inner page, 38 per leaf.
	t.Run("packed/cap=19+38/paged=points", func(t *testing.T) {
		base := newPagedStore(t, packedDim, store.DefaultPageSize, 8, PointLeaves)
		if base.MaxEntries(false) != 19 || base.MaxEntries(true) != 38 {
			t.Fatalf("store capacities %d (leaf), %d (inner), want 38 and 19", base.MaxEntries(true), base.MaxEntries(false))
		}
		tr, err := BulkLoad(NewVersioned(base), rects, data)
		if err != nil {
			t.Fatal(err)
		}
		tr.PublishEpoch()
		view, err := tr.SnapshotView()
		if err != nil {
			t.Fatal(err)
		}
		defer view.Release()
		pruned = checkBallPruning(t, "packed point-leaf live", tr, packed, probes) || pruned
		pruned = checkBallPruning(t, "packed point-leaf view", view, packed, probes) || pruned
		if st := base.pool.Stats(); st.Evictions == 0 {
			t.Fatal("pool never evicted: the tree fits the pool")
		}
	})
	if !pruned {
		t.Fatal("the ball never saved a visit the box made: pruning went untested")
	}
}
