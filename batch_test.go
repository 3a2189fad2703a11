package walrus

import (
	"context"
	"fmt"
	"testing"

	"walrus/internal/imgio"
)

func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	items := []BatchItem{
		{"a", scene(green, red, 10, 10, 50)},
		{"b", scene(green, red, 60, 60, 50)},
		{"c", scene(gray, blue, 30, 30, 50)},
		{"d", scene(green, yellow, 20, 40, 40)},
	}
	seq, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := seq.Add(it.ID, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	par, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := par.AddBatch(items, 3); err != nil {
		t.Fatal(err)
	}
	if par.Len() != seq.Len() || par.NumRegions() != seq.NumRegions() {
		t.Fatalf("batch differs: %d/%d images, %d/%d regions",
			par.Len(), seq.Len(), par.NumRegions(), seq.NumRegions())
	}
	// Query results must be identical (same regions, same order).
	q := scene(green, red, 30, 30, 50)
	ms, _, err := seq.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := par.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(mp) {
		t.Fatalf("result counts differ: %d vs %d", len(ms), len(mp))
	}
	for i := range ms {
		if ms[i].ID != mp[i].ID || ms[i].Similarity != mp[i].Similarity {
			t.Fatalf("rank %d differs: %+v vs %+v", i, ms[i], mp[i])
		}
	}
}

func TestAddBatchEmptyAndErrors(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(nil, 4); err != nil {
		t.Fatal(err)
	}
	// A too-small image fails extraction; the error names the item.
	items := []BatchItem{
		{"ok", scene(green, red, 10, 10, 40)},
		{"tiny", imgio.New(8, 8, 3)},
	}
	if err := db.AddBatch(items, 2); err == nil {
		t.Fatal("AddBatch accepted a too-small image")
	}
	// The item before the failure is indexed.
	if db.Len() != 1 {
		t.Fatalf("Len = %d after partial batch", db.Len())
	}
	// Duplicate ids fail at insertion.
	if err := db.AddBatch([]BatchItem{{"ok", scene(green, red, 0, 0, 40)}}, 1); err == nil {
		t.Fatal("AddBatch accepted duplicate id")
	}
}

func TestAddBatchManyWorkers(t *testing.T) {
	var items []BatchItem
	for i := 0; i < 12; i++ {
		items = append(items, BatchItem{
			ID:    fmt.Sprintf("img-%02d", i),
			Image: scene(green, red, (i*7)%60, (i*11)%60, 40),
		})
	}
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(items, 64); err != nil { // more workers than items
		t.Fatal(err)
	}
	if db.Len() != 12 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestStats(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Images != 0 || s.Regions != 0 || s.DiskBacked {
		t.Fatalf("fresh stats: %+v", s)
	}
	if s.SignatureDim != 12 {
		t.Fatalf("SignatureDim = %d", s.SignatureDim)
	}
	if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.Images != 1 || s.Regions == 0 || s.IndexHeight < 1 {
		t.Fatalf("stats after add: %+v", s)
	}
	// Disk-backed flag.
	ddb, err := Create(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ddb.Close()
	if !ddb.Stats().DiskBacked {
		t.Fatal("disk-backed DB not reported")
	}
}

func TestQueryScene(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Target contains a red square bottom-right on green.
	if err := db.Add("has-object", scene(green, red, 80, 80, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("no-object", scene(gray, blue, 20, 20, 40)); err != nil {
		t.Fatal(err)
	}
	// Query image has the object top-left plus unrelated clutter elsewhere;
	// select just the object's rectangle.
	q := scene(green, red, 4, 4, 40)
	for y := 80; y < 120; y++ {
		for x := 20; x < 120; x++ {
			q.SetRGB(x, y, 0.9, 0.9, 0.2) // clutter the scene query should ignore
		}
	}
	matches, stats, err := db.QuerySceneContext(context.Background(), q, 0, 0, 48, 48, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueryRegions == 0 {
		t.Fatal("no regions from scene")
	}
	if len(matches) == 0 || matches[0].ID != "has-object" {
		t.Fatalf("scene query matches: %+v", matches)
	}
	// Scene smaller than the window is rejected.
	if _, _, err := db.QuerySceneContext(context.Background(), q, 0, 0, 16, 16, DefaultQueryParams()); err == nil {
		t.Fatal("accepted scene smaller than window")
	}
	// Out-of-bounds rectangle is rejected.
	if _, _, err := db.QuerySceneContext(context.Background(), q, 100, 100, 48, 48, DefaultQueryParams()); err == nil {
		t.Fatal("accepted out-of-bounds scene")
	}
}
