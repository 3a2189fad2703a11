package walrus

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
	"walrus/internal/region"
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

// refRun returns the half-open range [lo, hi) of refs belonging to image
// imgIdx, by binary search over refs' non-decreasing Image order.
func refRun(refs []regionRef, imgIdx int) (lo, hi int) {
	lo = sort.Search(len(refs), func(i int) bool { return refs[i].Image >= imgIdx })
	hi = lo + sort.Search(len(refs)-lo, func(i int) bool { return refs[lo+i].Image > imgIdx })
	return lo, hi
}

// slotRegions materialises the regions of image slot idx from the
// shard's columns; the regions alias the columns.
func slotRegions(sh *shard, idx int) []region.Region {
	rec := &sh.images[idx]
	return sh.cols.regions(rec.First, rec.First+rec.Count)
}

// refsInImageOrder reports whether refs is non-decreasing in Image, the
// order refRun relies on.
func refsInImageOrder(refs []regionRef) bool {
	return slices.IsSortedFunc(refs, func(a, b regionRef) int { return cmp.Compare(a.Image, b.Image) })
}

// checkRefOrder asserts the catalog invariant Open relies on: refs are
// non-decreasing in Image, and each live image's binary-searched run is
// the run its record names and holds exactly its regions.
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
		if regions := slotRegions(sh, idx); hi-lo != len(regions) || lo != rec.First {
			t.Fatalf("%s: image %q has a run of %d refs from %d, %d regions from %d", when, rec.ID, hi-lo, lo, len(regions), rec.First)
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

// paperItems renders n paper-size images (128×85, 85×128 and 96×128, as
// the bench corpus draws them) of the seeded dataset's categories, in
// chunks, handing each chunk to add so that no more than one chunk of
// pixels is live at a time.
func paperItems(t *testing.T, seed int64, n, chunk int, add func([]BatchItem) error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cats := dataset.Categories()
	sizes := dataset.DefaultOptions().Sizes
	for lo := 0; lo < n; lo += chunk {
		items := make([]BatchItem, 0, chunk)
		for i := lo; i < min(n, lo+chunk); i++ {
			size := sizes[i%len(sizes)]
			items = append(items, BatchItem{ID: fmt.Sprintf("p%05d", i), Image: dataset.Render(cats[i%len(cats)], rng, size[0], size[1])})
		}
		if err := add(items); err != nil {
			t.Fatal(err)
		}
	}
}

// liveHeap is the live heap after forced collections, in bytes. The
// second collection drops what sync.Pool victim caches kept through the
// first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCatalogBytesPerRegion: a shard keeps its regions in flat columns
// with no box for a centroid database, so the live heap a database holds
// per region — catalog, refs, id index and R*-tree together — stays well
// below what a catalog of region.Region values with boxes held. It is
// measured as the heap after a collection with the database live, less
// the heap with an empty database live, over 600 paper-size images added
// in batches, in memory at one and three shards and on disk after a close
// and a reopen. A catalog of region.Region values read 752, 939 and 896
// bytes per region here; the columns read about 420, 630 and 550. Three
// shards hold three insert-grown trees and three sets of columns, each
// with its own append slack; the disk figure counts the buffer pool's
// frames.
func TestCatalogBytesPerRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("renders and indexes 600 paper-size images per database")
	}
	const images = 600
	opts := DefaultOptions()
	for _, tc := range []struct {
		name   string
		shards int
		disk   bool
		bound  float64 // bytes per region
	}{
		{"memory/1", 1, false, 500},
		{"memory/3", 3, false, 700},
		{"disk/reopened", 1, true, 650},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opts
			o.Shards = tc.shards
			var dir string
			build := func() (*DB, error) {
				if tc.disk {
					dir = t.TempDir()
					return Create(dir, o)
				}
				return New(o)
			}
			empty, err := build()
			if err != nil {
				t.Fatal(err)
			}
			base := liveHeap()
			runtime.KeepAlive(empty)
			if err := empty.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := build()
			if err != nil {
				t.Fatal(err)
			}
			paperItems(t, 48, images, 25, func(items []BatchItem) error { return db.AddBatch(items, 1) })
			if tc.disk {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			defer db.Close()
			regions := db.NumRegions()
			perRegion := float64(liveHeap()-base) / float64(regions)
			runtime.KeepAlive(db)
			t.Logf("%d images, %d regions: %.0f live heap bytes per region", db.Len(), regions, perRegion)
			if db.Len() != images || perRegion > tc.bound {
				t.Fatalf("%d images, %.0f bytes per region, want %d images and at most %.0f", db.Len(), perRegion, images, tc.bound)
			}
		})
	}
}

// TestCatalogKeepsExtractedFields: the columns keep every field of a
// region that the database's options read, bit for bit as the extractor
// produced it — signature, bitmap and window count always, the fine
// signature when FineSignature is set, the box under UseBBox — and
// RegionsOf returns them, in memory and after a close and a reopen (whose
// regions were decoded from the page file's region records). Min and Max
// are nil unless UseBBox is set.
func TestCatalogKeepsExtractedFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(o *Options)
	}{
		{"centroid", func(o *Options) {}},
		{"bbox", func(o *Options) { o.UseBBox = true }},
		{"fine", func(o *Options) { o.Region.FineSignature = 4 }},
		{"bbox+fine", func(o *Options) { o.UseBBox, o.Region.FineSignature = true, 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := DefaultOptions()
			tc.set(&o)
			o.Shards = 2
			ext, err := region.NewExtractor(o.Region)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			disk, err := Create(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]region.Region{}
			paperItems(t, 7, 24, 8, func(items []BatchItem) error {
				for _, it := range items {
					if want[it.ID], err = ext.Extract(it.Image); err != nil {
						return err
					}
				}
				return errors.Join(mem.AddBatch(items, 1), disk.AddBatch(items, 1))
			})
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			bits := func(v []float64) []uint64 {
				if v == nil {
					return nil
				}
				out := make([]uint64, len(v))
				for i, x := range v {
					out[i] = math.Float64bits(x)
				}
				return out
			}
			for what, db := range map[string]*DB{"memory": mem, "reopened": reopened} {
				for id, regions := range want {
					got, ok := db.RegionsOf(id)
					if !ok || len(got) != len(regions) {
						t.Fatalf("%s: RegionsOf(%q) = %d regions, %v; want %d", what, id, len(got), ok, len(regions))
					}
					for i, w := range regions {
						g := got[i]
						wantMin, wantMax := w.Min, w.Max
						if !o.UseBBox {
							wantMin, wantMax = nil, nil
						}
						if !slices.Equal(bits(g.Signature), bits(w.Signature)) || !slices.Equal(bits(g.Fine), bits(w.Fine)) ||
							!slices.Equal(bits(g.Min), bits(wantMin)) || !slices.Equal(bits(g.Max), bits(wantMax)) ||
							g.Bitmap.K != w.Bitmap.K || !slices.Equal(g.Bitmap.Words, w.Bitmap.Words) || g.Windows != w.Windows {
							t.Fatalf("%s: region %d of %q is %+v, extracted %+v", what, i, id, g, w)
						}
						if (g.Fine == nil) != (o.Region.FineSignature == 0) {
							t.Fatalf("%s: region %d of %q has a %d-value fine signature under FineSignature %d", what, i, id, len(g.Fine), o.Region.FineSignature)
						}
					}
				}
			}
		})
	}
}

// TestOpenRejectsRegionDims: the columns hold every region at the
// options' dimensionalities, so Open refuses a heap whose region records
// have another fine signature length than the options ask for, in either
// direction, rather than load them.
func TestOpenRejectsRegionDims(t *testing.T) {
	for _, tc := range []struct{ wrote, reads int }{{0, 4}, {4, 0}} {
		o := testOptions()
		o.Region.FineSignature = tc.wrote
		dir := t.TempDir()
		db, err := Create(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add("a", variedScene(1)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		rewriteOptions(t, dir, func(o *Options) { o.Region.FineSignature = tc.reads })
		re, err := Open(dir)
		if re != nil {
			re.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "signature dims") {
			t.Fatalf("fine signature %d read as %d: Open error %v, want the dimensionality refusal", tc.wrote, tc.reads, err)
		}
	}
}
