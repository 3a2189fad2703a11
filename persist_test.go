package walrus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"walrus/internal/store"
)

// TestOpenRejectsCorruptCatalog: garbage in the catalog file fails cleanly.
func TestOpenRejectsCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, catalogFileName), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted corrupt catalog")
	}
}

// TestOpenRejectsMissingIndexFile: a catalog without its page file fails.
func TestOpenRejectsMissingIndexFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted missing index file")
	}
}

// TestOpenDetectsCorruptIndexPages: flipped bytes inside node pages
// surface as checksum errors on query.
func TestOpenDetectsCorruptIndexPages(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := db.Add(string(rune('a'+i)), scene(green, red, i*10, i*10, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, indexFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 4096 + 50; off < len(raw); off += 4096 {
		raw[off] ^= 0xA5
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		// Acceptable: corruption may already surface at open time.
		return
	}
	defer re.Close()
	if _, _, err := re.QueryContext(context.Background(), scene(green, red, 10, 10, 40), DefaultQueryParams()); err == nil {
		t.Fatal("query succeeded over corrupted index pages")
	}
}

// TestFlushThenReopenMidLife: Flush makes the current state durable even
// without Close.
func TestFlushThenReopenMidLife(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen from the flushed state while the original handle still exists
	// (read-only inspection of the durable snapshot).
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("flushed snapshot has %d images", re.Len())
	}
	re.Close()
	db.Close()
}

// TestRemoveSurvivesReopen: tombstones persist.
func TestRemoveSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("keep", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("drop", scene(gray, blue, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Remove("drop"); err != nil || !ok {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len after reopen = %d", re.Len())
	}
	matches, _, err := re.QueryContext(context.Background(), scene(gray, blue, 10, 10, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == "drop" {
			t.Fatal("removed image resurrected by reopen")
		}
	}
}

// TestDiskRoundTripWithFineSignatures: fine signatures survive the heap
// serialization and the refined matching phase works after reopen.
func TestDiskRoundTripWithFineSignatures(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.Region.FineSignature = 8
	db, err := Create(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 20, 20, 50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	regions, ok := re.RegionsOf("a")
	if !ok || len(regions) == 0 {
		t.Fatal("no regions after reopen")
	}
	for _, r := range regions {
		if len(r.Fine) != 3*8*8 {
			t.Fatalf("fine signature lost: dim %d", len(r.Fine))
		}
	}
	p := DefaultQueryParams()
	p.Refine = true
	matches, _, err := re.QueryContext(context.Background(), scene(green, red, 20, 20, 50), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Similarity < 0.95 {
		t.Fatalf("refined query after reopen: %+v", matches)
	}
}

// TestDiskAddBatch: heap-backed payload storage works through the batch
// path too.
func TestDiskAddBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{"x", scene(green, red, 10, 10, 40)},
		{"y", scene(gray, blue, 30, 30, 40)},
	}
	if err := db.AddBatch(items, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("Len = %d", re.Len())
	}
	matches, _, err := re.QueryContext(context.Background(), scene(gray, blue, 30, 30, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != "y" {
		t.Fatalf("batch-indexed query after reopen: %+v", matches)
	}
}

// TestWriteAfterClose: once a database is closed, Add, AddBatch and
// Remove return ErrClosed and change nothing — not the published
// catalog, not the version vector, and not the store a reopen reads.
func TestWriteAfterClose(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/disk=%v", shards, disk), func(t *testing.T) {
				opts := testOptions()
				opts.Shards = shards
				dir := t.TempDir()
				var db *DB
				var err error
				if disk {
					db, err = Create(dir, opts)
				} else {
					db, err = New(opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				versions := db.VersionVector()

				if err := db.Add("b", scene(red, green, 20, 20, 40)); !errors.Is(err, ErrClosed) {
					t.Fatalf("Add after Close: got %v, want ErrClosed", err)
				}
				batch := []BatchItem{
					{ID: "c", Image: scene(green, red, 0, 0, 40)},
					{ID: "d", Image: scene(red, green, 30, 30, 40)},
				}
				if err := db.AddBatch(batch, 0); !errors.Is(err, ErrClosed) {
					t.Fatalf("AddBatch after Close: got %v, want ErrClosed", err)
				}
				if ok, err := db.Remove("a"); ok || !errors.Is(err, ErrClosed) {
					t.Fatalf("Remove after Close: got (%v, %v), want (false, ErrClosed)", ok, err)
				}
				if n := db.Len(); n != 1 {
					t.Fatalf("Len after rejected writes = %d, want 1", n)
				}
				if ids := db.IDs(); !reflect.DeepEqual(ids, []string{"a"}) {
					t.Fatalf("IDs after rejected writes = %v, want [a]", ids)
				}
				if got := db.VersionVector(); !reflect.DeepEqual(got, versions) {
					t.Fatalf("version vector moved from %v to %v on rejected writes", versions, got)
				}
				if !disk {
					return
				}

				re, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if ids := re.IDs(); !reflect.DeepEqual(ids, []string{"a"}) {
					t.Fatalf("reopened IDs = %v, want [a]", ids)
				}
				// The reopened index is intact: the survivor can be removed
				// and a rejected id added for real.
				if ok, err := re.Remove("a"); !ok || err != nil {
					t.Fatalf("Remove on reopened store: got (%v, %v)", ok, err)
				}
				if err := re.Add("b", scene(red, green, 20, 20, 40)); err != nil {
					t.Fatalf("Add on reopened store: %v", err)
				}
				if ids := re.IDs(); !reflect.DeepEqual(ids, []string{"b"}) {
					t.Fatalf("reopened IDs after remove+add = %v, want [b]", ids)
				}
			})
		}
	}
}

// truncCountingFile is an *os.File that counts Truncate calls.
type truncCountingFile struct {
	*os.File
	truncates *int
}

func (f truncCountingFile) Truncate(size int64) error {
	*f.truncates++
	return f.File.Truncate(size)
}

// TestDurabilityLogKeepsItsBlocks: once the write-ahead log has its
// first chunk (Create's own checkpoint writes it), durable commits,
// flushes, a close and a reopen neither truncate the log nor change its
// size.
func TestDurabilityLogKeepsItsBlocks(t *testing.T) {
	dir := t.TempDir()
	truncates := 0
	o := testOptions()
	o.Durability = DurabilityAlways
	o.FS = func(path string, flag int) (store.File, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil || filepath.Base(path) != walFileName {
			return f, err
		}
		return truncCountingFile{File: f, truncates: &truncates}, nil
	}
	db, err := Create(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	high, created := walSize(), truncates
	if high == 0 {
		t.Fatal("Create left an empty log")
	}
	for i := 0; i < 12; i++ {
		if err := db.Add(fmt.Sprintf("img%d", i), scene(green, red, 4*i, 4*i, 40)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got := walSize(); got != high || truncates != created {
			t.Fatalf("after op %d: log size %d (want %d), %d truncates since Create", i, got, high, truncates-created)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFS(dir, o.FS)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 12 {
		t.Fatalf("Len = %d after reopen, want 12", re.Len())
	}
	if err := re.Add("after-reopen", scene(gray, blue, 8, 8, 40)); err != nil {
		t.Fatal(err)
	}
	if got := walSize(); got != high || truncates != created {
		t.Fatalf("after reopen: log size %d (want %d), %d truncates since Create", got, high, truncates-created)
	}
}
