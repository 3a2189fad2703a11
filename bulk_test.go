package walrus

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"walrus/internal/imgio"
)

func bulkItems(n int) []BatchItem {
	var items []BatchItem
	for i := 0; i < n; i++ {
		items = append(items, BatchItem{
			ID:    fmt.Sprintf("img-%02d", i),
			Image: scene(green, red, (i*11)%70, (i*7)%70, 40),
		})
	}
	return items
}

// TestBuildFromMatchesIncremental: the bulk-built database answers queries
// identically to one built with Add.
func TestBuildFromMatchesIncremental(t *testing.T) {
	items := bulkItems(10)
	bulk, err := BuildFrom(testOptions(), items, 4)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := inc.Add(it.ID, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Len() != inc.Len() || bulk.NumRegions() != inc.NumRegions() {
		t.Fatalf("bulk %d/%d vs incremental %d/%d",
			bulk.Len(), bulk.NumRegions(), inc.Len(), inc.NumRegions())
	}
	q := scene(green, red, 33, 21, 40)
	mb, _, err := bulk.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	mi, _, err := inc.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(mb) != len(mi) {
		t.Fatalf("result counts differ: %d vs %d", len(mb), len(mi))
	}
	for i := range mb {
		if mb[i].ID != mi[i].ID || mb[i].Similarity != mi[i].Similarity {
			t.Fatalf("rank %d: %+v vs %+v", i, mb[i], mi[i])
		}
	}
}

func TestBuildFromEmptyAndErrors(t *testing.T) {
	db, err := BuildFrom(testOptions(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Fatalf("empty build Len = %d", db.Len())
	}
	// The empty database accepts subsequent adds.
	if err := db.Add("later", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}

	items := bulkItems(2)
	items[1].ID = items[0].ID
	if _, err := BuildFrom(testOptions(), items, 2); err == nil {
		t.Fatal("accepted duplicate ids")
	}
	bad := []BatchItem{{"tiny", imgio.New(4, 4, 3)}}
	if _, err := BuildFrom(testOptions(), bad, 1); err == nil {
		t.Fatal("accepted too-small image")
	}
}

// TestBuildFromThenMutate: the bulk-built DB supports Add/Remove/Query.
func TestBuildFromThenMutate(t *testing.T) {
	db, err := BuildFrom(testOptions(), bulkItems(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("extra", scene(gray, blue, 30, 30, 40)); err != nil {
		t.Fatal(err)
	}
	ok, err := db.Remove("img-03")
	if err != nil || !ok {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	matches, _, err := db.QueryContext(context.Background(), scene(gray, blue, 30, 30, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != "extra" {
		t.Fatalf("post-mutation query: %+v", matches)
	}
}

// TestCreateFromDiskRoundTrip: the disk-backed bulk build persists and
// answers queries identically after reopening.
func TestCreateFromDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	items := bulkItems(8)
	db, err := CreateFrom(dir, testOptions(), items, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 25, 25, 40)
	want, _, err := db.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
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
	if re.Len() != 8 {
		t.Fatalf("Len = %d", re.Len())
	}
	got, _, err := re.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Similarity != want[i].Similarity {
			t.Fatalf("rank %d drifted: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Mutations work on the reopened bulk-built database.
	if err := re.Add("extra", scene(gray, blue, 30, 30, 40)); err != nil {
		t.Fatal(err)
	}
	if ok, err := re.Remove("img-02"); err != nil || !ok {
		t.Fatalf("Remove: %v %v", ok, err)
	}
}

// TestCreateFromEmptyPages: an empty database's page file holds three
// pages, shard by shard: the meta page, the heap page with the options
// record and the tree's root. So a bulk load of no items leaves no page of
// an empty tree behind beneath the tree it packs, and Create, which is
// that load, allocates what it did when it built an empty tree itself.
func TestCreateFromEmptyPages(t *testing.T) {
	for _, shards := range []int{1, 3} {
		opts := testOptions()
		opts.Shards = shards
		dir := t.TempDir()
		db, err := CreateFrom(dir, opts, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range db.shards {
			shardDir := dir
			if shards > 1 {
				shardDir = filepath.Join(dir, shardDirName(i))
			}
			st, err := os.Stat(filepath.Join(shardDir, indexFileName))
			if err != nil {
				t.Fatal(err)
			}
			if pages := st.Size() / int64(sh.persist.pg.PhysicalPageSize()); pages != 3 {
				t.Fatalf("shards=%d shard %d: the page file holds %d pages, want 3", shards, i, pages)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
