package rstar

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"walrus/internal/store"
)

// countLeaves walks the tree and returns how many leaves it has.
func countLeaves(t *testing.T, tr *Tree) (leaves int) {
	t.Helper()
	var walk func(id NodeID)
	walk = func(id NodeID) {
		n, err := tr.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			leaves++
			return
		}
		for _, e := range n.Entries {
			walk(e.Child)
		}
	}
	walk(tr.root)
	return leaves
}

// TestPagedStorePointLeaves grows a 12-d tree on a 4 KiB point-leaf store
// by inserts, then deletes two thirds of it, so leaves underflow and
// condense dissolves them: the tree keeps its invariants at the two
// capacities (19 entries per inner page, 38 per leaf), answers like brute
// force, and reopens from disk with the kind it recorded.
func TestPagedStorePointLeaves(t *testing.T) {
	const dim, n = 12, 3000
	path := filepath.Join(t.TempDir(), "points.db")
	pg, err := createPager(path, store.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	pool, err := store.NewBufferPool(pg, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPagedStore(pg, pool, dim, PointLeaves)
	if err != nil {
		t.Fatal(err)
	}
	if ps.MaxEntries(false) != 19 || ps.MaxEntries(true) != 38 {
		t.Fatalf("capacities %d (inner), %d (leaf), want 19 and 38", ps.MaxEntries(false), ps.MaxEntries(true))
	}
	tr, err := New(ps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = shapeRect(rng, dim, false, rects[:i])
		if err := tr.Insert(rects[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leavesBefore := countLeaves(t, tr)
	if tr.Height() < 3 {
		t.Fatalf("height %d: the tree has no inner level below the root", tr.Height())
	}

	live := make(map[int64]bool, n)
	for i := range rects {
		live[int64(i)] = true
	}
	for _, i := range rng.Perm(n)[:2*n/3] {
		ok, err := tr.Delete(rects[i], int64(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
		delete(live, int64(i))
		if len(live)%250 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%d live: %v", len(live), err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if leavesAfter := countLeaves(t, tr); leavesAfter*2 > leavesBefore {
		t.Fatalf("%d leaves before the deletes, %d after: condense dissolved too few", leavesBefore, leavesAfter)
	}
	check := func(what string, tr *Tree) {
		t.Helper()
		for q := 0; q < 40; q++ {
			query := rects[rng.Intn(n)].Expand(0.08)
			got, err := tr.SearchAll(query)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for _, i := range bruteSearch(rects, query) {
				if live[i] {
					want = append(want, i)
				}
			}
			if !int64SlicesEqual(sortedPayloads(got), want) {
				t.Fatalf("%s: query %d: %d hits, brute force %d", what, q, len(got), len(want))
			}
		}
	}
	check("live", tr)
	if err := ps.Flush(); err != nil {
		t.Fatal(err)
	}

	pool2, err := store.NewBufferPool(pg, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Asked for box leaves, the store refuses; asked for point leaves, it
	// reloads the tree.
	if _, err := NewPagedStore(pg, pool2, dim, BoxLeaves); err == nil || !strings.Contains(err.Error(), "point leaves") {
		t.Fatalf("box-leaf open of a point-leaf store: %v", err)
	}
	ps2, err := NewPagedStore(pg, pool2, dim, PointLeaves)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Load(ps2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	check("reloaded", tr2)
}

// TestPagedStoreLeafKind pins how a page file records its leaf kind: a
// fresh store takes the kind asked for; a store that records none (box
// leaves, the layout of every store written before point leaves) is
// refused when point leaves are asked for, as a point-leaf store is when
// box leaves are; and a point-leaf store fails the dimension check of a
// reader that predates point leaves, which compares the whole slot with
// its dimension.
func TestPagedStoreLeafKind(t *testing.T) {
	const dim = 12
	open := func(path string, create bool, leaves LeafKind) (*store.Pager, *PagedStore, error) {
		t.Helper()
		var pg *store.Pager
		var err error
		if create {
			pg, err = createPager(path, store.DefaultPageSize)
		} else {
			pg, err = openPager(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pg.Close() })
		pool, err := store.NewBufferPool(pg, 4)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewPagedStore(pg, pool, dim, leaves)
		return pg, ps, err
	}

	dir := t.TempDir()
	boxPath, pointPath := filepath.Join(dir, "box.db"), filepath.Join(dir, "point.db")
	pg, ps, err := open(boxPath, true, BoxLeaves)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Leaves() != BoxLeaves || pg.Root(pagedMetaDim) != dim {
		t.Fatalf("box-leaf store: kind %v, meta slot %#x", ps.Leaves(), pg.Root(pagedMetaDim))
	}
	if ps.MaxEntries(true) != 19 || ps.MaxEntries(false) != 19 {
		t.Fatalf("box-leaf capacities %d (leaf), %d (inner), want 19 and 19", ps.MaxEntries(true), ps.MaxEntries(false))
	}
	if _, err := New(ps); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := open(boxPath, false, PointLeaves); err == nil || !strings.Contains(err.Error(), "box leaves") {
		t.Fatalf("point-leaf open of a box-leaf store: %v, want a box-leaves error", err)
	}
	if _, ps, err = open(boxPath, false, BoxLeaves); err != nil {
		t.Fatalf("box-leaf reopen of a box-leaf store: %v", err)
	}
	if ps.Leaves() != BoxLeaves {
		t.Fatalf("box-leaf reopen of a box-leaf store: kind %v", ps.Leaves())
	}

	pg, ps, err = open(pointPath, true, PointLeaves)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Leaves() != PointLeaves || pg.Root(pagedMetaDim) == dim {
		t.Fatalf("point-leaf store: kind %v, meta slot %#x", ps.Leaves(), pg.Root(pagedMetaDim))
	}
	if _, err := New(ps); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := open(pointPath, false, BoxLeaves); err == nil {
		t.Fatal("box-leaf open of a point-leaf store succeeded")
	}
	if _, _, err := open(pointPath, false, PointLeaves); err != nil {
		t.Fatal(err)
	}
}

// TestPagedStorePointLeafRejectsBox: a point-leaf store's leaf page has
// room for one corner, so Put refuses a leaf entry whose corners differ in
// any bit — a real box, and a point whose corners differ only in the sign
// of a zero — rather than silently dropping the maxs. Inner entries are
// boxes and are stored whole.
func TestPagedStorePointLeafRejectsBox(t *testing.T) {
	checkPointLeafRejectsBox(t, newPagedStore(t, 3, 1024, 4, PointLeaves))
}

func checkPointLeafRejectsBox(t *testing.T, ps NodeStore) {
	t.Helper()
	leaf, err := ps.New(true)
	if err != nil {
		t.Fatal(err)
	}
	box := randomRect(rand.New(rand.NewSource(3)), 3)
	signedZero := Rect{Min: []float64{0, 1, 2}, Max: []float64{math.Copysign(0, -1), 1, 2}}
	for _, r := range []Rect{box, signedZero} {
		leaf.Entries = []Entry{{Rect: Point([]float64{1, 2, 3}), Data: 1}, {Rect: r, Data: 2}}
		if err := ps.Put(leaf); err == nil || !strings.Contains(err.Error(), "not a point") {
			t.Fatalf("Put of leaf entry %v: %v, want a not-a-point error", r, err)
		}
	}
	leaf.Entries = leaf.Entries[:1]
	if err := ps.Put(leaf); err != nil {
		t.Fatal(err)
	}
	inner, err := ps.New(false)
	if err != nil {
		t.Fatal(err)
	}
	inner.Entries = []Entry{{Rect: box, Child: leaf.ID}}
	if err := ps.Put(inner); err != nil {
		t.Fatal(err)
	}
	got, err := ps.Get(inner.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Entries[0].Rect.Equal(box) {
		t.Fatalf("inner entry read back as %v, want %v", got.Entries[0].Rect, box)
	}
}

// TestPagedStoreDecodeAllocations: decoding a full node costs the Node, its
// entry slice and one array for every entry's bounds, for point leaves,
// box leaves and inner nodes alike. Every insert decodes the leaf it
// lands in, and a point leaf holds twice the entries of a box leaf.
func TestPagedStoreDecodeAllocations(t *testing.T) {
	const dim = 12
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct {
		leaves LeafKind
		leaf   bool
	}{{PointLeaves, true}, {BoxLeaves, true}, {PointLeaves, false}} {
		ps := newPagedStore(t, dim, store.DefaultPageSize, 4, c.leaves)
		n, err := ps.New(c.leaf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ps.MaxEntries(c.leaf); i++ {
			r := shapeRect(rng, dim, !c.leaf || c.leaves == BoxLeaves, nil)
			n.Entries = append(n.Entries, Entry{Rect: r, Data: int64(i), Child: NodeID(i + 1)})
		}
		if err := ps.Put(n); err != nil {
			t.Fatal(err)
		}
		f, err := ps.pool.Get(store.PageID(n.ID))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if got := ps.decode(n.ID, f.Data); len(got.Entries) != len(n.Entries) {
				t.Fatalf("decode: %d entries, want %d", len(got.Entries), len(n.Entries))
			}
		})
		ps.pool.Unpin(f, false)
		if allocs > 3 {
			t.Fatalf("points=%v leaf=%v: decoding %d entries makes %v allocations, want <= 3",
				ps.points, c.leaf, len(n.Entries), allocs)
		}
		got, err := ps.Get(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range got.Entries {
			if !e.Rect.Equal(n.Entries[i].Rect) {
				t.Fatalf("points=%v leaf=%v: entry %d decoded as %v, want %v", ps.points, c.leaf, i, e.Rect, n.Entries[i].Rect)
			}
		}
	}
}
