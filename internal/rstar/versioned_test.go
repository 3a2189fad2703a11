package rstar

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"walrus/internal/store"
)

// newVersionedMemTree builds a tree on a versioned memory store.
func newVersionedMemTree(t *testing.T, dim int) *Tree {
	t.Helper()
	ms, err := NewMemStore(dim, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(NewVersioned(ms))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// newVersionedPagedTree builds a tree on a versioned paged store backed by
// a temp file.
func newVersionedPagedTree(t *testing.T, dim int) *Tree {
	t.Helper()
	pg, err := createPager(filepath.Join(t.TempDir(), "tree.db"), 2048)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	pool, err := store.NewBufferPool(pg, 16)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPagedStore(pg, pool, dim, BoxLeaves)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(NewVersioned(ps))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func pointAt(vals ...float64) Rect { return Point(vals) }

// everything returns a rect covering the whole test coordinate range.
func everything(dim int) Rect {
	min := make([]float64, dim)
	max := make([]float64, dim)
	for i := range min {
		min[i], max[i] = -1e9, 1e9
	}
	r, _ := NewRect(min, max)
	return r
}

func testVersionedOldViewStable(t *testing.T, tr *Tree) {
	t.Helper()
	vs := tr.Versioned()
	if vs == nil {
		t.Fatal("tree store is not versioned")
	}
	const firstBatch = 60
	for i := 0; i < firstBatch; i++ {
		if err := tr.Insert(pointAt(float64(i), float64(i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if e := tr.PublishEpoch(); e != 1 {
		t.Fatalf("first publish epoch = %d, want 1", e)
	}

	old, err := tr.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	if old.Epoch() != 1 || old.Len() != firstBatch {
		t.Fatalf("old view epoch=%d len=%d, want 1/%d", old.Epoch(), old.Len(), firstBatch)
	}

	// Mutate heavily: more inserts (splits rewrite nodes) and deletions
	// (condense frees nodes), across several published epochs.
	for i := firstBatch; i < firstBatch+80; i++ {
		if err := tr.Insert(pointAt(float64(i), float64(i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.PublishEpoch()
	for i := 0; i < 40; i++ {
		ok, err := tr.Delete(pointAt(float64(i), float64(i)), int64(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	tr.PublishEpoch()

	// The pinned view still sees exactly the first batch.
	got, err := old.SearchAll(everything(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != firstBatch {
		t.Fatalf("old view sees %d entries, want %d", len(got), firstBatch)
	}
	seen := make(map[int64]bool)
	for _, e := range got {
		seen[e.Data] = true
	}
	for i := int64(0); i < firstBatch; i++ {
		if !seen[i] {
			t.Fatalf("old view lost entry %d", i)
		}
	}
	if vs.Retained() == 0 {
		t.Fatal("expected retained pre-images while the old epoch is pinned")
	}

	// A fresh view sees the newest state.
	cur, err := tr.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	curAll, err := cur.SearchAll(everything(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := firstBatch + 80 - 40; len(curAll) != want || cur.Len() != want {
		t.Fatalf("current view sees %d entries (Len %d), want %d", len(curAll), cur.Len(), want)
	}
	cur.Release()

	old.Release()
	old.Release() // idempotent
	if r := vs.Retained(); r != 0 {
		t.Fatalf("retained = %d after all views released, want 0", r)
	}
}

func TestVersionedOldViewStableMem(t *testing.T) {
	testVersionedOldViewStable(t, newVersionedMemTree(t, 2))
}

func TestVersionedOldViewStablePaged(t *testing.T) {
	testVersionedOldViewStable(t, newVersionedPagedTree(t, 2))
}

// TestVersionedConcurrentSearchPublish hammers epoch-pinned searches
// against a writer that keeps inserting, deleting and publishing. Each
// reader checks the strongest invariant available: a full-space search at
// a pinned epoch returns exactly the entry count recorded in that epoch's
// metadata (no torn reads, no lost or duplicated entries).
func TestVersionedConcurrentSearchPublish(t *testing.T) {
	for _, kind := range []string{"mem", "paged"} {
		t.Run(kind, func(t *testing.T) {
			var tr *Tree
			if kind == "mem" {
				tr = newVersionedMemTree(t, 2)
			} else {
				tr = newVersionedPagedTree(t, 2)
			}
			vs := tr.Versioned()
			type liveEntry struct {
				r    Rect
				data int64
			}
			var live []liveEntry
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				r := pointAt(rng.Float64(), rng.Float64())
				if err := tr.Insert(r, int64(i)); err != nil {
					t.Fatal(err)
				}
				live = append(live, liveEntry{r, int64(i)})
			}
			tr.PublishEpoch()

			var mu sync.Mutex // serializes the writer's tree ops
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(8))
				next := int64(50)
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					if wrng.Intn(3) == 0 && len(live) > 10 {
						i := wrng.Intn(len(live))
						ok, err := tr.Delete(live[i].r, live[i].data)
						if err != nil || !ok {
							mu.Unlock()
							t.Errorf("delete: ok=%v err=%v", ok, err)
							return
						}
						live = append(live[:i], live[i+1:]...)
					} else {
						r := pointAt(wrng.Float64(), wrng.Float64())
						if err := tr.Insert(r, next); err != nil {
							mu.Unlock()
							t.Errorf("insert: %v", err)
							return
						}
						live = append(live, liveEntry{r, next})
						next++
					}
					if round%3 == 0 {
						tr.PublishEpoch()
					}
					mu.Unlock()
				}
			}()

			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 200; i++ {
						view, err := tr.SnapshotView()
						if err != nil {
							t.Errorf("SnapshotView: %v", err)
							return
						}
						got, err := view.SearchAll(everything(2))
						if err != nil {
							view.Release()
							t.Errorf("SearchAll: %v", err)
							return
						}
						if len(got) != view.Len() {
							view.Release()
							t.Errorf("epoch %d: search found %d entries, meta says %d", view.Epoch(), len(got), view.Len())
							return
						}
						view.Release()
					}
				}()
			}
			readers.Wait()
			close(stop)
			wg.Wait()

			mu.Lock()
			tr.PublishEpoch()
			mu.Unlock()
			if r := vs.Retained(); r != 0 {
				t.Fatalf("retained = %d after final publish with no pins, want 0", r)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVersionedPageReuse frees nodes and forces page reuse on the paged
// store while an old epoch stays pinned: the pinned view must not observe
// the recycled page's new content.
func TestVersionedPageReuse(t *testing.T) {
	tr := newVersionedPagedTree(t, 2)
	for i := 0; i < 120; i++ {
		if err := tr.Insert(pointAt(float64(i), 0), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.PublishEpoch()
	view, err := tr.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	// Delete most entries (frees pages), then reinsert (reuses them).
	for i := 0; i < 100; i++ {
		if ok, err := tr.Delete(pointAt(float64(i), 0), int64(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	tr.PublishEpoch()
	for i := 200; i < 320; i++ {
		if err := tr.Insert(pointAt(float64(i), 0), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.PublishEpoch()

	got, err := view.SearchAll(everything(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 120 {
		t.Fatalf("pinned view sees %d entries, want 120", len(got))
	}
	for _, e := range got {
		if e.Data >= 200 {
			t.Fatalf("pinned view sees post-pin entry %d", e.Data)
		}
	}
	view.Release()
	if r := tr.Versioned().Retained(); r != 0 {
		t.Fatalf("retained = %d, want 0", r)
	}
}

// TestVersionedUnpublishedSkipsCapture checks that construction-time
// writes (before any Publish) retain nothing.
func TestVersionedUnpublishedSkipsCapture(t *testing.T) {
	tr := newVersionedMemTree(t, 2)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(pointAt(float64(i), float64(i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r := tr.Versioned().Retained(); r != 0 {
		t.Fatalf("retained = %d before first publish, want 0", r)
	}
}

func ExampleTree_SnapshotView() {
	ms, _ := NewMemStore(2, 8)
	tr, _ := New(NewVersioned(ms))
	_ = tr.Insert(Point([]float64{1, 1}), 1)
	tr.PublishEpoch()

	view, _ := tr.SnapshotView()
	defer view.Release()
	_ = tr.Insert(Point([]float64{2, 2}), 2)
	tr.PublishEpoch()

	fmt.Println("view:", view.Len(), "tree:", tr.Len())
	// Output: view: 1 tree: 2
}

// Len returns the number of data entries at the pinned epoch.
func (tv *TreeView) Len() int { return tv.size }
