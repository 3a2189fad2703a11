package walrus

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/imgio"
)

// variedScene returns a distinct 128x128 scene for each i.
func variedScene(i int) *imgio.Image {
	palette := [][3]float64{green, red, blue, yellow, gray}
	return scene(palette[i%5], palette[(i/5+1+i%5)%5], (i*7)%80, (i*13)%80, 24+i%24)
}

// TestAddRejectsNonFinitePixels: an image with a NaN or +Inf pixel is an
// error on every ingest and query path, and leaves the database intact:
// 200 further Adds succeed and the index passes its invariant check. A
// NaN pixel was once indexed silently as an all-NaN signature, and an
// infinite one made a later Add panic inside the R*-tree split. The
// rejection does not depend on a window reading the pixel: the last
// column of a 129-wide image lies outside every window, including the
// 2×2 base windows of the DP, which convert the pixels they read.
func TestAddRejectsNonFinitePixels(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		interior := variedScene(0)
		interior.Pix[5*128+9] = v
		uncovered := imgio.New(129, 128, 3)
		uncovered.FillRGB(0.2, 0.5, 0.7)
		uncovered.Set(1, 128, 64, v)
		for _, bad := range []*imgio.Image{interior, uncovered} {
			if err := db.Add(fmt.Sprintf("bad-%v", v), bad); err == nil {
				t.Fatalf("Add accepted a %v pixel in a %dx%d image", v, bad.W, bad.H)
			}
			if err := db.AddBatch([]BatchItem{{ID: "ok", Image: variedScene(1)}, {ID: "bad", Image: bad}}, 1); err == nil {
				t.Fatalf("AddBatch accepted a %v pixel in a %dx%d image", v, bad.W, bad.H)
			}
			if ok, err := db.Remove("ok"); err != nil || !ok {
				t.Fatalf("Remove(ok) = %v, %v", ok, err)
			}
			if _, err := BuildFrom(testOptions(), []BatchItem{{ID: "bad", Image: bad}}, 1); err == nil {
				t.Fatalf("BuildFrom accepted a %v pixel in a %dx%d image", v, bad.W, bad.H)
			}
			if _, _, err := db.QueryContext(context.Background(), bad, DefaultQueryParams()); err == nil {
				t.Fatalf("Query accepted a %v pixel in a %dx%d image", v, bad.W, bad.H)
			}
		}
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d after rejected adds, want 0", db.Len())
	}
	for i := 0; i < 200; i++ {
		if err := db.Add(fmt.Sprintf("img-%03d", i), variedScene(i)); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	sh := soleShard(t, db)
	sh.mu.RLock()
	err = sh.tree.CheckInvariants()
	sh.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 200 {
		t.Fatalf("Len = %d, want 200", db.Len())
	}
}

// refsInImageOrder reports whether refs is non-decreasing in Image, the
// order refRun relies on.
func refsInImageOrder(refs []regionRef) bool {
	return slices.IsSortedFunc(refs, func(a, b regionRef) int { return cmp.Compare(a.Image, b.Image) })
}

// checkRefOrder asserts the catalog invariant Remove and WAL replay rely
// on: refs are non-decreasing in Image, and each live image's binary-
// searched run holds exactly its regions.
func checkRefOrder(t *testing.T, db *DB, when string) {
	t.Helper()
	sh := soleShard(t, db)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !refsInImageOrder(sh.refs) {
		t.Fatalf("%s: refs out of image order", when)
	}
	for idx, rec := range sh.images {
		if rec.ID == "" {
			continue
		}
		lo, hi := refRun(sh.refs, idx)
		if hi-lo != len(rec.Regions) {
			t.Fatalf("%s: image %q has a run of %d refs, %d regions", when, rec.ID, hi-lo, len(rec.Regions))
		}
		for i := lo; i < hi; i++ {
			if sh.refs[i].Image != idx || sh.refs[i].Local != i-lo {
				t.Fatalf("%s: ref %d = %+v in the run of image %d", when, i, sh.refs[i], idx)
			}
		}
	}
}

// TestRefsStayInImageOrder: every catalog-building path keeps refs in
// image order: Add, AddBatch, Remove, BuildFrom, CreateFrom, a reopen,
// and WAL replay after a crash.
func TestRefsStayInImageOrder(t *testing.T) {
	items := func(prefix string, n int) []BatchItem {
		out := make([]BatchItem, n)
		for i := range out {
			out[i] = BatchItem{ID: fmt.Sprintf("%s-%d", prefix, i), Image: variedScene(len(prefix) + i)}
		}
		return out
	}
	// mutate adds one image and a batch of three, then removes the single
	// add and the batch's middle image: 2 net images, 2 retired runs.
	mutate := func(t *testing.T, db *DB, name string) {
		t.Helper()
		if err := db.Add("extra-"+name, variedScene(40)); err != nil {
			t.Fatal(err)
		}
		checkRefOrder(t, db, name+" Add")
		if err := db.AddBatch(items(name, 3), 1); err != nil {
			t.Fatal(err)
		}
		checkRefOrder(t, db, name+" AddBatch")
		for _, id := range []string{"extra-" + name, name + "-1"} {
			if ok, err := db.Remove(id); err != nil || !ok {
				t.Fatalf("Remove(%s) = %v, %v", id, ok, err)
			}
			checkRefOrder(t, db, name+" Remove "+id)
		}
	}

	t.Run("memory", func(t *testing.T) {
		db, err := New(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items("base", 4), 1); err != nil {
			t.Fatal(err)
		}
		mutate(t, db, "New")
		built, err := BuildFrom(testOptions(), items("base", 6), 2)
		if err != nil {
			t.Fatal(err)
		}
		checkRefOrder(t, built, "BuildFrom")
		mutate(t, built, "BuildFrom")
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		db, err := CreateFrom(dir, testOptions(), items("base", 6), 2)
		if err != nil {
			t.Fatal(err)
		}
		checkRefOrder(t, db, "CreateFrom")
		mutate(t, db, "CreateFrom")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		checkRefOrder(t, re, "reopen")
		mutate(t, re, "reopen")
	})

	t.Run("replay", func(t *testing.T) {
		o := testOptions()
		o.Durability = DurabilityAlways
		in := crashfs.New()
		o.FS = in.Open
		dir := t.TempDir()
		db, err := Create(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items("base", 4), 1); err != nil {
			t.Fatal(err)
		}
		mutate(t, db, "Create")
		// Crash: every later disk operation fails, so recovery replays
		// every commit since Create from the log.
		in.Arm(1, -1)
		db.Close()
		in.Arm(0, -1)
		re, err := OpenFS(dir, in.Open)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if stats, _ := re.Recovery(); !stats[0].Replayed {
			t.Fatal("reopen did not replay the log")
		}
		checkRefOrder(t, re, "replay")
		if re.Len() != 6 {
			t.Fatalf("Len after replay = %d, want 6", re.Len())
		}
		for _, id := range []string{"extra-Create", "Create-1"} {
			if _, ok := re.RegionsOf(id); ok {
				t.Fatalf("replay resurrected removed %s", id)
			}
		}
		mutate(t, re, "replay")
	})
}

// TestOpenRejectsRefsOutOfOrder: a catalog whose region directory is not
// in image order cannot be opened, since Remove finds an image's refs by
// binary search.
func TestOpenRejectsRefsOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Add(fmt.Sprintf("img-%d", i), variedScene(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Swap the slots of the first and the last image records: the region
	// directory they rebuild then runs out of image order.
	swapped := 0
	rewriteHeap(t, dir, func(rec []byte) []byte {
		if rec[0] != tagImage {
			return nil
		}
		e, err := decodeImageEntry(rec)
		if err != nil {
			t.Fatal(err)
		}
		if e.count == 0 || e.slot > 2 {
			t.Fatalf("fixture: image record %+v", e)
		}
		if e.slot == 1 {
			return nil
		}
		e.slot = 2 - e.slot
		swapped++
		return e.encode()
	})
	if swapped != 2 {
		t.Fatalf("fixture: swapped %d image records, want 2", swapped)
	}
	if re, err := Open(dir); err == nil {
		re.Close()
		t.Fatal("Open accepted a catalog with refs out of image order")
	}
}
