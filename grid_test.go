package walrus

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/region"
)

// setCatalogGrid rewrites the bitmap grid recorded in the catalog of the
// one-shard database in dir.
func setCatalogGrid(t *testing.T, dir string, grid int) {
	t.Helper()
	path := filepath.Join(dir, catalogFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cat catalogData
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	cat.Opts.Region.BitmapGrid = grid
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantGridError fails unless err is the catalog's grid refusal.
func wantGridError(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "the database's grid is") {
		t.Fatalf("%s: got error %v, want the bitmap grid refusal", what, err)
	}
}

// TestGridCheckAtCatalogEntry: the scorer trusts every catalog bitmap to
// be on the options' grid, so a region whose bitmap is on another grid is
// refused, with an error, on every path into a catalog — Add and AddBatch
// in memory and on disk, the bulk loads' catalog pass (BuildFrom,
// CreateFrom), and Open's region load, whether the record came with the
// catalog or from WAL replay — and a query whose own regions are off the
// grid fails rather than being scored. An extractor for another grid
// stands in for a region of another grid; on disk, a catalog rewritten to
// another grid than its records'.
func TestGridCheckAtCatalogEntry(t *testing.T) {
	opts := testOptions()
	off := opts
	off.Region.BitmapGrid = opts.Region.BitmapGrid / 2
	offExt, err := region.NewExtractor(off.Region)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{{ID: "a", Image: variedScene(0)}, {ID: "b", Image: variedScene(1)}}

	writes := func(t *testing.T, db *DB) {
		t.Helper()
		soleShard(t, db).ext = offExt
		wantGridError(t, "Add", db.Add("a", items[0].Image))
		wantGridError(t, "AddBatch", db.AddBatch(items, 1))
		if db.Len() != 0 || db.NumRegions() != 0 {
			t.Fatalf("refused writes left %d images, %d regions", db.Len(), db.NumRegions())
		}
	}
	t.Run("memory", func(t *testing.T) {
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		writes(t, db)
	})
	t.Run("disk", func(t *testing.T) {
		db, err := Create(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		writes(t, db)
	})
	t.Run("BuildFrom", func(t *testing.T) {
		sh, err := prepare(opts)
		if err != nil {
			t.Fatal(err)
		}
		sh.ext = offExt
		_, _, err = sh.catalogBulkLocked(items, 1)
		wantGridError(t, "BuildFrom", err)
	})
	t.Run("CreateFrom", func(t *testing.T) {
		sh, err := createShardFiles(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.close()
		sh.ext = offExt
		_, _, err = sh.catalogBulkLocked(items, 1)
		wantGridError(t, "CreateFrom", err)
	})
	t.Run("query", func(t *testing.T) {
		db, err := BuildFrom(opts, items, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		db.SetCacheSize(0)
		db.shards[0].cur.Load().ext = offExt
		_, _, err = db.QueryContext(t.Context(), items[0].Image, DefaultQueryParams())
		wantGridError(t, "query", err)
	})
	t.Run("Open", func(t *testing.T) {
		// A control first: an empty database opens under another grid, so
		// the refusal below comes from the region records.
		empty := t.TempDir()
		db, err := Create(empty, off)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		setCatalogGrid(t, empty, opts.Region.BitmapGrid)
		re, err := Open(empty)
		if err != nil {
			t.Fatalf("empty database under a rewritten grid: %v", err)
		}
		re.Close()

		dir := t.TempDir()
		db, err = CreateFrom(dir, off, items, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		setCatalogGrid(t, dir, opts.Region.BitmapGrid)
		re, err = Open(dir)
		if re != nil {
			re.Close()
			t.Fatal("Open returned a database whose region records are off its grid")
		}
		wantGridError(t, "Open", err)
	})
	t.Run("WAL replay", func(t *testing.T) {
		o := off
		o.Durability = DurabilityAlways
		in := crashfs.New()
		o.FS = in.Open
		dir := t.TempDir()
		db, err := Create(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add("a", items[0].Image); err != nil {
			t.Fatal(err)
		}
		// Crash: the image is in the WAL alone, past the catalog.
		in.Arm(1, -1)
		db.Close()
		in.Arm(0, -1)
		setCatalogGrid(t, dir, opts.Region.BitmapGrid)
		re, err := OpenFS(dir, in.Open)
		if re != nil {
			re.Close()
			t.Fatal("Open returned a database whose replayed region is off its grid")
		}
		wantGridError(t, "WAL replay", err)
	})
}
