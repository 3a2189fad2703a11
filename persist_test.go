package walrus

import (
	"context"
	"os"
	"path/filepath"
	"testing"
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
