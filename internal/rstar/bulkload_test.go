package rstar

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"walrus/internal/store"
)

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, n := range []int{0, 1, 3, 10, 100, 1000} {
		s, err := NewMemStore(3, 8)
		if err != nil {
			t.Fatal(err)
		}
		rects := make([]Rect, n)
		data := make([]int64, n)
		for i := range rects {
			rects[i] = randomRect(rng, 3)
			data[i] = int64(i)
		}
		tr, err := BulkLoad(s, rects, data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 20; q++ {
			query := randomRect(rng, 3).Expand(0.05)
			got, err := tr.SearchAll(query)
			if err != nil {
				t.Fatal(err)
			}
			if !int64SlicesEqual(sortedPayloads(got), bruteSearch(rects, query)) {
				t.Fatalf("n=%d query %d: search mismatch", n, q)
			}
		}
	}
}

func TestBulkLoadValidation(t *testing.T) {
	s, err := NewMemStore(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BulkLoad(s, make([]Rect, 2), make([]int64, 3)); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := BulkLoad(s, []Rect{Point([]float64{1})}, []int64{0}); err == nil {
		t.Error("accepted wrong dimension")
	}
}

// TestBulkLoadThenMutate: a bulk-loaded tree accepts further inserts and
// deletes.
func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	s, err := NewMemStore(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	rects := make([]Rect, n)
	data := make([]int64, n)
	for i := range rects {
		rects[i] = randomRect(rng, 2)
		data[i] = int64(i)
	}
	tr, err := BulkLoad(s, rects, data)
	if err != nil {
		t.Fatal(err)
	}
	extra := randomRect(rng, 2)
	if err := tr.Insert(extra, 999); err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Delete(rects[5], 5)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	got, err := tr.SearchAll(extra)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range got {
		if e.Data == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted entry not found after bulk load")
	}
}

// TestBulkLoadQuick randomizes sizes, dims and capacities.
func TestBulkLoadQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(5)
		s, err := NewMemStore(dim, 4+rng.Intn(16))
		if err != nil {
			return false
		}
		n := rng.Intn(400)
		rects := make([]Rect, n)
		data := make([]int64, n)
		for i := range rects {
			rects[i] = randomRect(rng, dim)
			data[i] = int64(i)
		}
		tr, err := BulkLoad(s, rects, data)
		if err != nil {
			return false
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		for q := 0; q < 5; q++ {
			query := randomRect(rng, dim).Expand(0.1)
			got, err := tr.SearchAll(query)
			if err != nil {
				return false
			}
			if !int64SlicesEqual(sortedPayloads(got), bruteSearch(rects, query)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadPaged: bulk loading works on the disk-backed store and
// survives a reopen.
func TestBulkLoadPaged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bulk.db")
	pg, err := createPager(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := store.NewBufferPool(pg, 16)
	ps, err := NewPagedStore(pg, pool, 4, BoxLeaves)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	const n = 300
	rects := make([]Rect, n)
	data := make([]int64, n)
	for i := range rects {
		rects[i] = randomRect(rng, 4)
		data[i] = int64(i)
	}
	tr, err := BulkLoad(ps, rects, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Flush(); err != nil {
		t.Fatal(err)
	}
	pg.Close()

	pg2, err := openPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	pool2, _ := store.NewBufferPool(pg2, 16)
	ps2, err := NewPagedStore(pg2, pool2, 4, BoxLeaves)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Load(ps2)
	if err != nil {
		t.Fatal(err)
	}
	query := rects[7].Expand(0.02)
	got, err := tr2.SearchAll(query)
	if err != nil {
		t.Fatal(err)
	}
	if !int64SlicesEqual(sortedPayloads(got), bruteSearch(rects, query)) {
		t.Fatal("search mismatch after reopen")
	}
}

// TestBulkLoadPackingDensity: packing never uses more nodes than
// one-at-a-time insertion, whose splits leave nodes between 40% and 100%
// full where the packer fills all but two per level.
func TestBulkLoadPackingDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const n, cap = 500, 8
	rects := make([]Rect, n)
	data := make([]int64, n)
	for i := range rects {
		rects[i] = randomRect(rng, 2)
		data[i] = int64(i)
	}
	bulkStore, _ := NewMemStore(2, cap)
	if _, err := BulkLoad(bulkStore, rects, data); err != nil {
		t.Fatal(err)
	}
	insStore, _ := NewMemStore(2, cap)
	tr, err := New(insStore)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rects {
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if liveNodes(bulkStore) > liveNodes(insStore) {
		t.Fatalf("bulk load used %d nodes, insertion used %d", liveNodes(bulkStore), liveNodes(insStore))
	}
}

// levelSizes returns the entry counts of the tree's nodes level by level,
// leaves first.
func levelSizes(t *testing.T, tr *Tree) [][]int {
	t.Helper()
	levels := make([][]int, tr.height)
	var walk func(id NodeID, level int)
	walk = func(id NodeID, level int) {
		n, err := tr.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		levels[level] = append(levels[level], len(n.Entries))
		if n.Leaf {
			return
		}
		for _, e := range n.Entries {
			walk(e.Child, level-1)
		}
	}
	walk(tr.root, tr.height-1)
	return levels
}

// TestBulkLoadPacking pins the variance split's shape at dims 1–12 and
// capacities 4–19: each level holds ceil(below/M) nodes — ceil(n/M)
// leaves — of which at most two are not full, and every invariant, the
// minimum fill included, holds at the sizes where the remainder is
// hardest to place: n = M, M+1 and 2M+1, a remainder below the minimum
// fill, and a three-level tree.
func TestBulkLoadPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for dim := 1; dim <= 12; dim++ {
		for m := 4; m <= 19; m++ {
			ms, err := NewMemStore(dim, m)
			if err != nil {
				t.Fatal(err)
			}
			minE := newTree(ms).minEntries(true)
			for _, n := range []int{m, m + 1, 2*m + 1, 5*m + minE - 1, m*m + 1} {
				rects, data := make([]Rect, n), make([]int64, n)
				for i := range rects {
					rects[i], data[i] = randomRect(rng, dim), int64(i)
					if i%2 == 0 {
						rects[i] = Point(rects[i].Min)
					}
				}
				s, _ := NewMemStore(dim, m)
				tr, err := BulkLoad(s, rects, data)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("dim=%d M=%d n=%d: %v", dim, m, n, err)
				}
				want := n
				for level, sizes := range levelSizes(t, tr) {
					want = ceilDiv(want, m)
					nonFull := 0
					for _, size := range sizes {
						if size < m {
							nonFull++
						}
					}
					if len(sizes) != want || nonFull > 2 {
						t.Fatalf("dim=%d M=%d n=%d level %d: %d nodes (want %d), %d not full: %v",
							dim, m, n, level, len(sizes), want, nonFull, sizes)
					}
				}
				if want != 1 {
					t.Fatalf("dim=%d M=%d n=%d: tree of height %d ends in %d nodes, not a root", dim, m, n, tr.height, want)
				}
			}
		}
	}
}
