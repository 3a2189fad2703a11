package walrus

import (
	"archive/tar"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"walrus/internal/match"
	"walrus/internal/rstar"
)

// legacyFixture is a centroid database directory written by the code that
// preceded point leaves, whose index leaves are boxes with Min == Max and
// whose page file records no leaf kind, and whose shards keep their
// catalog in catalog.gob. It holds two databases, each made by
// Create(testOptions() with Shards 1 or 3), AddBatch(frontCorpus[:6]) and
// Close: "one" and "three".
const legacyFixture = "boxleaf_centroid_db.tar.gz"

// extractFixture unpacks database name from testdata/legacyFixture into a
// fresh directory and returns its path.
func extractFixture(t *testing.T, name string) string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", legacyFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	tr := tar.NewReader(gz)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(root, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			var data []byte
			if data, err = io.ReadAll(tr); err == nil {
				err = os.WriteFile(path, data, 0o644)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(root, name)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture has no database %q: %v", name, err)
	}
	return dir
}

// shardLeaves returns the index leaf kind of every shard of a disk DB.
func shardLeaves(db *DB) []rstar.LeafKind {
	kinds := make([]rstar.LeafKind, len(db.shards))
	for i, sh := range db.shards {
		kinds[i] = sh.persist.ps.Leaves()
	}
	return kinds
}

// allLeaves reports whether every shard of db has leaves of kind k.
func allLeaves(db *DB, k rstar.LeafKind) bool {
	for _, got := range shardLeaves(db) {
		if got != k {
			return false
		}
	}
	return true
}

// sameQueryByID fails unless every item's QueryByID returns the same whole
// Match values from got as from want, under the quick and greedy
// matchers.
func sameQueryByID(t *testing.T, what string, got, want *DB, items []BatchItem) {
	t.Helper()
	ctx := context.Background()
	for _, matcher := range []match.Algorithm{match.Quick, match.Greedy} {
		p := DefaultQueryParams()
		p.Matcher = matcher
		for _, it := range items {
			w, _, err := want.QueryByID(ctx, it.ID, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(w) == 0 {
				t.Fatalf("%s/%v: reference returned no matches", it.ID, matcher)
			}
			g, _, err := got.QueryByID(ctx, it.ID, p)
			if err != nil {
				t.Fatalf("%s: %s/%v: %v", what, it.ID, matcher, err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: %s/%v: matches differ:\n got %+v\nwant %+v", what, it.ID, matcher, g, w)
			}
		}
	}
}

// TestLeafLayoutLegacyFixtureRefused: the legacy fixture's databases keep
// their catalog in catalog.gob files, a format this version does not read.
// At one and three shards, Open refuses them with ErrLegacyFormat before
// touching any file: every file of the fixture is byte-identical
// afterwards. Create over the refused directory removes the stale catalog,
// so the re-created database reopens.
func TestLeafLayoutLegacyFixtureRefused(t *testing.T) {
	for _, c := range []struct {
		name   string
		shards int
	}{{"one", 1}, {"three", 3}} {
		t.Run(fmt.Sprintf("shards=%d", c.shards), func(t *testing.T) {
			dir := extractFixture(t, c.name)
			before := readTree(t, dir)
			if n := countFiles(before, legacyCatalogName); n != c.shards {
				t.Fatalf("fixture holds %d catalog files, want one per shard (%d)", n, c.shards)
			}
			db, err := Open(dir)
			if !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("Open on the legacy fixture: got (%v, %v), want ErrLegacyFormat", db, err)
			}
			if db != nil {
				t.Fatal("a refused open returned a database")
			}
			if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("the refused open changed the fixture's files")
			}

			opts := testOptions()
			opts.Shards = c.shards
			db, err = Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.AddBatch(frontCorpus(t)[:3], 0); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if n := countFiles(readTree(t, dir), legacyCatalogName); n != 0 {
				t.Fatalf("Create left %d stale catalog files", n)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("reopening the database created over the fixture: %v", err)
			}
			defer re.Close()
			if re.Len() != 3 {
				t.Fatalf("re-created database holds %d images, want 3", re.Len())
			}
		})
	}
}

// readTree returns the contents of every regular file under root, by
// slash-separated path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// countFiles counts the files of a readTree result with base name name.
func countFiles(files map[string][]byte, name string) int {
	n := 0
	for path := range files {
		if filepath.Base(path) == name {
			n++
		}
	}
	return n
}

// TestLeafLayoutBBoxKeepsBoxLeaves: a UseBBox database indexes real boxes,
// so its shards get box leaves and record no leaf kind — the page file a
// reader from before point leaves expects — at one and three shards, and
// answer the same after a reopen.
func TestLeafLayoutBBoxKeepsBoxLeaves(t *testing.T) {
	items := frontCorpus(t)[:6]
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := testOptions()
			opts.UseBBox = true
			opts.Shards = shards
			dir := t.TempDir()
			db, err := Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.AddBatch(items, 0); err != nil {
				t.Fatal(err)
			}
			if !allLeaves(db, rstar.BoxLeaves) {
				t.Fatalf("UseBBox shards have leaf kinds %v, want box leaves", shardLeaves(db))
			}
			dim := uint64(opts.Region.Dim())
			for i, sh := range db.shards {
				// Slot 2 is the paged R*-tree's dimension slot (see heapRootSlot).
				if slot := sh.persist.pg.Root(2); slot != dim {
					t.Fatalf("shard %d records %#x in the dimension slot, want the bare dimension %d", i, slot, dim)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if !allLeaves(reopened, rstar.BoxLeaves) {
				t.Fatalf("reopened UseBBox shards have leaf kinds %v, want box leaves", shardLeaves(reopened))
			}
			fresh, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.AddBatch(items, 0); err != nil {
				t.Fatal(err)
			}
			sameQueryByID(t, "reopened UseBBox", reopened, fresh, items)
		})
	}
}

// TestLeafLayoutBoxReaderRefusesPointLeaves: a point-leaf database opened
// by a reader that expects box leaves fails to open and so returns no
// results, at one and three shards. The reader here is this code told the
// database is UseBBox (its options record rewritten so); a reader from before
// point leaves compares the page file's dimension slot with the bare
// dimension, which a point-leaf store's slot does not equal.
func TestLeafLayoutBoxReaderRefusesPointLeaves(t *testing.T) {
	items := frontCorpus(t)[:6]
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := testOptions()
			opts.Shards = shards
			dir := t.TempDir()
			db, err := Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.AddBatch(items, 0); err != nil {
				t.Fatal(err)
			}
			if !allLeaves(db, rstar.PointLeaves) {
				t.Fatalf("centroid shards have leaf kinds %v, want point leaves", shardLeaves(db))
			}
			dim := uint64(opts.Region.Dim())
			for i, sh := range db.shards {
				if slot := sh.persist.pg.Root(2); slot == dim {
					t.Fatalf("shard %d's dimension slot is the bare dimension: a box-leaf reader would accept it", i)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			shardDirs := []string{dir}
			if shards > 1 {
				shardDirs = shardDirs[:0]
				for i := 0; i < shards; i++ {
					shardDirs = append(shardDirs, filepath.Join(dir, shardDirName(i)))
				}
			}
			for _, sd := range shardDirs {
				rewriteOptions(t, sd, func(o *Options) { o.UseBBox = true })
			}
			boxReader, err := Open(dir)
			if err == nil {
				boxReader.Close()
				t.Fatal("a box-leaf reader opened a point-leaf database")
			}
			if boxReader != nil {
				t.Fatalf("a failed open returned a database: %v", err)
			}
		})
	}
}
