package walrus

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"walrus/internal/match"
	"walrus/internal/store"
)

// TestShardManifestWrittenLast: a multi-shard Create whose third shard
// cannot create its first file fails, and leaves no shards.json naming
// shards that do not exist — so the directory does not open, neither as
// the half-built fleet nor as a one-shard database. A manifest left in
// the directory by an earlier database is removed before the first shard
// is built.
func TestShardManifestWrittenLast(t *testing.T) {
	errInjected := errors.New("injected create failure")
	failShard2 := func(path string, flag int) (store.File, error) {
		if strings.Contains(path, shardDirName(2)) {
			return nil, errInjected
		}
		return os.OpenFile(path, flag, 0o644)
	}
	opts := testOptions()
	opts.Shards = 3
	opts.FS = failShard2
	for _, stale := range []bool{false, true} {
		dir := t.TempDir()
		if stale {
			prev := testOptions()
			prev.Shards = 3
			db, err := Create(dir, prev)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Create(dir, opts); !errors.Is(err, errInjected) {
			t.Fatalf("stale=%v: Create = %v, want the injected failure", stale, err)
		}
		if _, err := os.Stat(filepath.Join(dir, shardManifestName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale=%v: shards.json after a failed Create: %v", stale, err)
		}
		if db, err := Open(dir); err == nil {
			db.Close()
			t.Fatalf("stale=%v: Open succeeded on a failed Create's directory", stale)
		}
	}

	// A successful create leaves the manifest and no temp file behind.
	dir := t.TempDir()
	opts.FS = nil
	db, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, err := readShardManifest(dir); err != nil || n != 3 {
		t.Fatalf("manifest = %d, %v, want 3", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardManifestName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest temp file left behind: %v", err)
	}
}

// TestLayoutCompat: every on-disk layout opens with its shard count and
// answers like the plain layout — the plain directory as one shard, a
// three-shard directory as three, and the layout a one-shard sharded
// create wrote before the database types merged (a shards.json of one
// shard plus shard-0000/) as one shard. QueryByID must return the same
// whole Match values from each, under the quick and greedy matchers.
func TestLayoutCompat(t *testing.T) {
	items := frontCorpus(t)[:12]
	build := func(dir string, shards int) {
		t.Helper()
		opts := testOptions()
		opts.Shards = shards
		db, err := Create(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	plainDir := filepath.Join(root, "plain")
	build(plainDir, 1)
	threeDir := filepath.Join(root, "three")
	build(threeDir, 3)
	oldDir := filepath.Join(root, "old-one-shard")
	build(filepath.Join(oldDir, shardDirName(0)), 1)
	if err := os.WriteFile(filepath.Join(oldDir, shardManifestName), []byte("{\n  \"shards\": 1\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	open := func(dir string, shards int) *DB {
		t.Helper()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if got := db.Shards(); got != shards {
			t.Fatalf("%s opens as %d shards, want %d", dir, got, shards)
		}
		if got := db.Len(); got != len(items) {
			t.Fatalf("%s holds %d images, want %d", dir, got, len(items))
		}
		return db
	}
	plain := open(plainDir, 1)
	others := map[string]*DB{"three": open(threeDir, 3), "old-one-shard": open(oldDir, 1)}
	ctx := context.Background()
	for _, matcher := range []match.Algorithm{match.Quick, match.Greedy} {
		p := DefaultQueryParams()
		p.Matcher = matcher
		for _, it := range items {
			want, _, err := plain.QueryByID(ctx, it.ID, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s/%v: plain layout returned no matches", it.ID, matcher)
			}
			for name, db := range others {
				got, _, err := db.QueryByID(ctx, it.ID, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/%v: matches differ from the plain layout:\n got %+v\nwant %+v", name, it.ID, matcher, got, want)
				}
			}
		}
	}
}
