package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"walrus/internal/store"
)

// shapeRect draws the i-th fixture rectangle: clustered 12-d points (or
// small boxes) like region signatures, with every 17th a repeat of an
// earlier one so the split sorts meet exact ties.
func shapeRect(rng *rand.Rand, dim int, boxes bool, prev []Rect) Rect {
	if len(prev) > 0 && rng.Intn(17) == 0 {
		return prev[rng.Intn(len(prev))]
	}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	cluster := float64(rng.Intn(8)) / 8
	for d := range lo {
		lo[d] = cluster + rng.NormFloat64()*0.05
		hi[d] = lo[d]
		if boxes {
			hi[d] += rng.Float64() * 0.02
		}
	}
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// tiesRect draws a tie-heavy fixture rectangle: every bound on a quarter
// grid in [-1, 1], a zero bound signed - or + at random, most axes of zero
// width (so most boxes have zero area and many candidates enlarge alike),
// and every 5th a repeat of an earlier rectangle.
func tiesRect(rng *rand.Rand, dim int, _ bool, prev []Rect) Rect {
	if len(prev) > 0 && rng.Intn(5) == 0 {
		return prev[rng.Intn(len(prev))]
	}
	signedZero := func(v float64) float64 {
		if v == 0 && rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return v
	}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for d := range lo {
		lo[d] = signedZero(float64(rng.Intn(9)-4) / 4)
		hi[d] = lo[d]
		if rng.Intn(3) == 0 {
			hi[d] = signedZero(lo[d] + float64(1+rng.Intn(2))/4)
		}
	}
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// shapeFixture grows a tree by n inserts from a fixed seed. deleteEvery > 0
// deletes a random earlier live entry after every deleteEvery-th insert (the
// condense/reinsert path); publishEvery > 0 publishes the versioned store
// that often and keeps one view pinned across publishes, failing if the
// view's answer ever changes (a node pointing at scratch state would).
func shapeFixture(t *testing.T, s NodeStore, gen func(*rand.Rand, int, bool, []Rect) Rect, n, dim int, boxes bool, deleteEvery, publishEvery int) *Tree {
	t.Helper()
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	var rects []Rect
	var live []int
	var view *TreeView
	var viewWant []int64
	wide := Point(make([]float64, dim)).Expand(10)
	defer func() {
		if view != nil {
			view.Release()
		}
	}()
	for i := 0; i < n; i++ {
		r := gen(rng, dim, boxes, rects)
		rects = append(rects, r)
		live = append(live, i)
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
		if deleteEvery > 0 && i%deleteEvery == deleteEvery-1 {
			k := rng.Intn(len(live))
			victim := live[k]
			live = append(live[:k], live[k+1:]...)
			ok, err := tr.Delete(rects[victim], int64(victim))
			if err != nil || !ok {
				t.Fatalf("Delete(%d) = %v, %v", victim, ok, err)
			}
		}
		if publishEvery > 0 && i%publishEvery == publishEvery-1 {
			tr.PublishEpoch()
			if view == nil || i%(8*publishEvery) == 8*publishEvery-1 {
				if view != nil {
					got, err := view.SearchAll(wide)
					if err != nil {
						t.Fatal(err)
					}
					if !int64SlicesEqual(sortedPayloads(got), viewWant) {
						t.Fatalf("insert %d: pinned view changed under later writes", i)
					}
					view.Release()
				}
				if view, err = tr.SnapshotView(); err != nil {
					t.Fatal(err)
				}
				got, err := view.SearchAll(wide)
				if err != nil {
					t.Fatal(err)
				}
				viewWant = sortedPayloads(got)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// treeDigest hashes the tree's whole shape: height, size, and, depth first,
// every node's id, leaf flag and entries (rectangle bits, child or payload).
func treeDigest(t *testing.T, tr *Tree) string {
	t.Helper()
	h := sha256.New()
	word := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(h, uint64(tr.height))
	word(h, uint64(tr.size))
	var walk func(id NodeID)
	walk = func(id NodeID) {
		n, err := tr.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		word(h, uint64(n.ID))
		leaf := uint64(0)
		if n.Leaf {
			leaf = 1
		}
		word(h, leaf)
		word(h, uint64(len(n.Entries)))
		for _, e := range n.Entries {
			for d := range e.Rect.Min {
				word(h, math.Float64bits(e.Rect.Min[d]))
				word(h, math.Float64bits(e.Rect.Max[d]))
			}
			word(h, uint64(e.Child))
			word(h, uint64(e.Data))
		}
		if !n.Leaf {
			for _, e := range n.Entries {
				walk(e.Child)
			}
		}
	}
	walk(tr.root)
	return hex.EncodeToString(h.Sum(nil))
}

// TestInsertShapeGolden pins the shape of insert-built trees: the R*
// heuristics (ChooseSubtree, the margin-driven split, forced reinsertion,
// condense on delete) must make the same decisions bit for bit whatever
// scratch storage they compute in. The first four digests were recorded
// before the heuristics stopped allocating their trial rectangles; the
// point-leaf one, whose leaves and inner nodes differ in capacity, when
// point leaves were added.
func TestInsertShapeGolden(t *testing.T) {
	const dim = 12
	cases := []struct {
		name  string
		store func(t *testing.T) NodeStore
		gen   func(*rand.Rand, int, bool, []Rect) Rect // nil = shapeRect
		n     int
		boxes bool
		del   int // delete after every del-th insert (0 = never)
		pub   int // publish every pub inserts (0 = never)
		want  string
	}{
		{name: "mem16", n: 3000, want: "b4e0a06ffeeaf091f0cc6e19abbf509aa53f90cd6f6351a998b40334f577780c",
			store: func(t *testing.T) NodeStore {
				ms, err := NewMemStore(dim, 16)
				if err != nil {
					t.Fatal(err)
				}
				return ms
			}},
		{name: "paged8frames", n: 1500, boxes: true, want: "dae0364601530d22b6774a67a65a34243d07dfd4ebb2cacc26651686c32937a2",
			store: func(t *testing.T) NodeStore {
				pg, err := createPager(filepath.Join(t.TempDir(), "shape.db"), 4096)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { pg.Close() })
				pool, err := store.NewBufferPool(pg, 8)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := NewPagedStore(pg, pool, dim, BoxLeaves)
				if err != nil {
					t.Fatal(err)
				}
				return ps
			}},
		{name: "pagedpoints8frames", n: 3000, del: 4, want: "edf1860f54af19b6ffe98f3abbc66c58db27d8484c116868a59875ec987508fe",
			store: func(t *testing.T) NodeStore {
				return newPagedStore(t, dim, store.DefaultPageSize, 8, PointLeaves)
			}},
		{name: "versioned16", n: 2000, pub: 5, want: "40721710da744bf86b3d6f671cba5c11333948f5dba93a2e4188907ac2950e19",
			store: func(t *testing.T) NodeStore {
				ms, err := NewMemStore(dim, 16)
				if err != nil {
					t.Fatal(err)
				}
				return NewVersioned(ms)
			}},
		{name: "deletes8", n: 2000, boxes: true, del: 3, pub: 7, want: "7bb7c7c59a9727bb75e1a519f8b1c9e75cc6b057c4d561d1d01cc516512cc3c2",
			store: func(t *testing.T) NodeStore {
				ms, err := NewMemStore(dim, 8)
				if err != nil {
					t.Fatal(err)
				}
				return NewVersioned(ms)
			}},
		{name: "ties16", n: 3000, gen: tiesRect, del: 5, want: "d0583a8fcf3daebfbc12f9c6134ef775d62e0ce8da0d0b8c9f0949fb3e1a9ba6",
			store: func(t *testing.T) NodeStore {
				ms, err := NewMemStore(dim, 16)
				if err != nil {
					t.Fatal(err)
				}
				return ms
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gen := c.gen
			if gen == nil {
				gen = shapeRect
			}
			tr := shapeFixture(t, c.store(t), gen, c.n, dim, c.boxes, c.del, c.pub)
			if got := treeDigest(t, tr); got != c.want {
				t.Fatalf("tree digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestInsertAllocations bounds the allocations of one Insert into a grown
// 12-d tree. Before the heuristics computed their trial unions and group
// MBRs in scratch rectangles, this fixture measured 607 allocations per
// insert; the bound is a tenth of that. What remains is the entry's own
// bounds, fresh bounds for the entries it enlarges, and the split halves.
func TestInsertAllocations(t *testing.T) {
	tr := newMemTree(t, 12, 16)
	rng := rand.New(rand.NewSource(695))
	const grown, measured = 5000, 400
	rects := make([]Rect, grown+measured)
	for i := range rects {
		rects[i] = shapeRect(rng, 12, false, nil)
	}
	for i, r := range rects[:grown] {
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	next := grown
	allocs := testing.AllocsPerRun(measured-1, func() {
		if err := tr.Insert(rects[next], int64(next)); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 60 {
		t.Fatalf("%.1f allocations per insert, want <= 60 (607 before scratch rectangles)", allocs)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRejectsNonFinite: a NaN or infinite bound, or an inverted
// rectangle, is an error, and the tree stays usable afterwards. Such a
// rectangle once made every split margin NaN, so no axis won and the
// split emptied both nodes.
func TestInsertRejectsNonFinite(t *testing.T) {
	tr := newMemTree(t, 3, 4)
	bad := []Rect{
		{Min: []float64{0, math.NaN(), 0}, Max: []float64{0, math.NaN(), 0}},
		{Min: []float64{0, 0, 0}, Max: []float64{math.Inf(1), 0, 0}},
		{Min: []float64{math.Inf(-1), 0, 0}, Max: []float64{0, 0, 0}},
		{Min: []float64{0, 1, 0}, Max: []float64{0, 0, 0}},
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		if i%50 == 0 {
			for _, r := range bad {
				if err := tr.Insert(r, -1); err == nil {
					t.Fatalf("Insert(%v) accepted", r)
				}
			}
		}
		if err := tr.Insert(randomRect(rng, 3), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
}
