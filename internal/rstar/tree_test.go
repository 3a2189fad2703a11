package rstar

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"walrus/internal/store"
)

// randomRect generates a small random rectangle in [0,1)^dim.
func randomRect(rng *rand.Rand, dim int) Rect {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for i := range lo {
		lo[i] = rng.Float64() * 0.9
		hi[i] = lo[i] + rng.Float64()*0.1
	}
	r, _ := NewRect(lo, hi)
	return r
}

// bruteSearch returns the payloads of all rects intersecting q.
func bruteSearch(rects []Rect, q Rect) []int64 {
	var out []int64
	for i, r := range rects {
		if intersects(r, q) {
			out = append(out, int64(i))
		}
	}
	return out
}

func sortedPayloads(entries []Entry) []int64 {
	out := make([]int64, len(entries))
	for i, e := range entries {
		out[i] = e.Data
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newMemTree(t *testing.T, dim, maxEntries int) *Tree {
	t.Helper()
	s, err := NewMemStore(dim, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, dim := range []int{1, 2, 3, 6} {
		tr := newMemTree(t, dim, 8)
		var rects []Rect
		for i := 0; i < 400; i++ {
			r := randomRect(rng, dim)
			rects = append(rects, r)
			if err := tr.Insert(r, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if tr.Len() != 400 {
			t.Fatalf("Len = %d", tr.Len())
		}
		for q := 0; q < 50; q++ {
			query := randomRect(rng, dim)
			query = query.Expand(0.05)
			got, err := tr.SearchAll(query)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteSearch(rects, query)
			if !int64SlicesEqual(sortedPayloads(got), want) {
				t.Fatalf("dim %d query %d: got %v want %v", dim, q, sortedPayloads(got), want)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newMemTree(t, 2, 8)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(Point([]float64{0.5, 0.5}), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	err := tr.Search(Point([]float64{0.5, 0.5}).Expand(0.1), func(Entry) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d entries", count)
	}
}

func TestInsertDimMismatch(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	if err := tr.Insert(Point([]float64{1, 2}), 0); err == nil {
		t.Error("Insert accepted wrong dimension")
	}
	if err := tr.Search(Point([]float64{1}), func(Entry) bool { return true }); err == nil {
		t.Error("Search accepted wrong dimension")
	}
	if _, err := tr.Delete(Point([]float64{1}), 0); err == nil {
		t.Error("Delete accepted wrong dimension")
	}
}

func TestDeleteAndCondense(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	tr := newMemTree(t, 2, 6)
	var rects []Rect
	const n = 300
	for i := 0; i < n; i++ {
		r := randomRect(rng, 2)
		rects = append(rects, r)
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a random two thirds, verifying search correctness along the way.
	alive := make(map[int64]bool)
	for i := 0; i < n; i++ {
		alive[int64(i)] = true
	}
	perm := rng.Perm(n)
	for k, idx := range perm[:2*n/3] {
		ok, err := tr.Delete(rects[idx], int64(idx))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%d) reported not found", idx)
		}
		delete(alive, int64(idx))
		if k%37 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", k+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(alive))
	}
	// Everything alive is findable; everything deleted is gone.
	all, err := tr.SearchAll(Point([]float64{0.5, 0.5}).Expand(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(alive) {
		t.Fatalf("full scan found %d, want %d", len(all), len(alive))
	}
	for _, e := range all {
		if !alive[e.Data] {
			t.Fatalf("deleted entry %d still present", e.Data)
		}
	}
	// Deleting a missing entry reports false.
	ok, err := tr.Delete(rects[perm[0]], int64(perm[0]))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Delete of missing entry reported true")
	}
}

func TestDeleteToEmptyAndReuse(t *testing.T) {
	tr := newMemTree(t, 2, 4)
	for i := 0; i < 30; i++ {
		if err := tr.Insert(Point([]float64{float64(i), float64(i)}), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		ok, err := tr.Delete(Point([]float64{float64(i), float64(i)}), int64(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d after deleting all, want 1", tr.Height())
	}
	// The tree is usable again.
	if err := tr.Insert(Point([]float64{1, 1}), 99); err != nil {
		t.Fatal(err)
	}
	got, err := tr.SearchAll(Point([]float64{1, 1}))
	if err != nil || len(got) != 1 || got[0].Data != 99 {
		t.Fatalf("reuse after empty: %v, %v", got, err)
	}
}

// TestInsertSearchQuick drives random workloads through testing/quick.
func TestInsertSearchQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(4)
		s, err := NewMemStore(dim, 4+rng.Intn(12))
		if err != nil {
			return false
		}
		tr, err := New(s)
		if err != nil {
			return false
		}
		n := 20 + rng.Intn(150)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = randomRect(rng, dim)
			if err := tr.Insert(rects[i], int64(i)); err != nil {
				return false
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		for q := 0; q < 10; q++ {
			query := randomRect(rng, dim).Expand(rng.Float64() * 0.1)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRectsAllowed(t *testing.T) {
	tr := newMemTree(t, 2, 4)
	p := Point([]float64{0.3, 0.7})
	for i := 0; i < 40; i++ {
		if err := tr.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.SearchAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("found %d duplicates, want 40", len(got))
	}
	// Delete them one by one; each delete removes exactly one.
	for i := 0; i < 40; i++ {
		ok, err := tr.Delete(p, int64(i))
		if err != nil || !ok {
			t.Fatalf("Delete dup %d: %v %v", i, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestPagedStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	pg, err := createPager(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := store.NewBufferPool(pg, 16)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPagedStore(pg, pool, 4, BoxLeaves)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(ps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(74))
	var rects []Rect
	const n = 500
	for i := 0; i < n; i++ {
		r := randomRect(rng, 4)
		rects = append(rects, r)
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk and verify queries match brute force.
	pg2, err := openPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	pool2, err := store.NewBufferPool(pg2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := NewPagedStore(pg2, pool2, 4, BoxLeaves)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Load(ps2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != n {
		t.Fatalf("reloaded Len = %d, want %d", tr2.Len(), n)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 30; q++ {
		query := randomRect(rng, 4).Expand(0.05)
		got, err := tr2.SearchAll(query)
		if err != nil {
			t.Fatal(err)
		}
		if !int64SlicesEqual(sortedPayloads(got), bruteSearch(rects, query)) {
			t.Fatalf("query %d mismatch after reload", q)
		}
	}
}

func TestPagedStoreDimensionGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dim.db")
	pg, err := createPager(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	pool, _ := store.NewBufferPool(pg, 4)
	if _, err := NewPagedStore(pg, pool, 3, BoxLeaves); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPagedStore(pg, pool, 5, BoxLeaves); err == nil {
		t.Error("PagedStore accepted changed dimension")
	}
	// A page must hold at least 4 entries: dim 60 entries are 968 bytes.
	if _, err := NewPagedStore(pg, pool, 60, BoxLeaves); err == nil {
		t.Error("PagedStore accepted oversize dimension")
	}
}

func TestLoadWithoutTree(t *testing.T) {
	s, err := NewMemStore(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(s); err == nil {
		t.Error("Load succeeded on empty store")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := newMemTree(t, 2, 8)
	got, err := tr.SearchAll(Point([]float64{0, 0}).Expand(1))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty search: %v, %v", got, err)
	}
	ok, err := tr.Delete(Point([]float64{0, 0}), 1)
	if err != nil || ok {
		t.Fatalf("empty delete: %v, %v", ok, err)
	}
}
