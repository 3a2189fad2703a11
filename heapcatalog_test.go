package walrus

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/imgio"
	"walrus/internal/region"
	"walrus/internal/store"
)

// catalogState fingerprints everything a reopen must rebuild: the IDs()
// order and, per shard, crashSnapshot's image slots (id, W, H, region
// bytes), refs (tombstones and RIDs included) and index entries.
func catalogState(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "ids %q\n", db.IDs())
	for i, sh := range db.shards {
		fmt.Fprintf(&b, "shard %d\n%s", i, crashSnapshot(t, sh))
	}
	return b.String()
}

// addRegionless enters image id with no regions through the shard's
// insertion path: the extractor refuses every image that would yield
// none (one below MinWindow is an error), so Add cannot make one.
func addRegionless(t *testing.T, db *DB, id string, im *imgio.Image) {
	t.Helper()
	sh := db.owner(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.publishLocked()
	if err := sh.addExtractedLocked(id, im, nil); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies every file under src, as a crash would leave them
// between operations, into a fresh directory and returns its path.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for rel, data := range readTree(t, src) {
		path := filepath.Join(dst, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurabilityCatalogRebuildExact: the catalog Open rebuilds from the
// heap is exactly the one the writes built. A seeded mix of Add, AddBatch
// and Remove — among them a region-less image, and removals of the newest
// image — runs on two databases, at one and three shards, and one of them
// is never closed. A copy of the other's files taken mid-run, as a crash
// leaves them, opens to the never-closed database's state at that point;
// the other itself, closed and reopened at the end, opens to its final
// state. In both, the next Add takes the slot and payload numbers the
// never-closed database gives it, and after the close the same RIDs too.
func TestDurabilityCatalogRebuildExact(t *testing.T) {
	corpus := corpus50(t)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := testOptions()
			opts.Shards = shards
			kept, err := Create(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer kept.Close()
			dir := t.TempDir()
			reopened, err := Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			dbs := []*DB{kept, reopened}

			rng := rand.New(rand.NewSource(46))
			next := 0
			var live []string // in add order
			remove := func(id string) {
				for _, db := range dbs {
					if ok, err := db.Remove(id); !ok || err != nil {
						t.Fatalf("Remove(%s) = %v, %v", id, ok, err)
					}
				}
				live = slices.DeleteFunc(live, func(s string) bool { return s == id })
			}
			var midState, crashDir string
			for step := 0; step < 24; step++ {
				if step == 12 {
					midState = catalogState(t, kept)
					if got := catalogState(t, reopened); got != midState {
						t.Fatalf("the two databases diverged before the copy:\n%s\nvs\n%s", got, midState)
					}
					crashDir = copyTree(t, dir)
				}
				switch op := rng.Intn(5); {
				case step == 4 || step == 17:
					id := fmt.Sprintf("regionless-%d", step)
					for _, db := range dbs {
						addRegionless(t, db, id, corpus[0].Image)
					}
					live = append(live, id)
				case (step == 9 || step == 20 || op == 0) && len(live) > 0:
					victim := live[len(live)-1] // the newest image
					if op == 0 {
						victim = live[rng.Intn(len(live))]
					}
					remove(victim)
				case op == 1:
					n := min(1+rng.Intn(3), len(corpus)-1-next)
					batch := corpus[next : next+n]
					next += n
					for _, db := range dbs {
						if err := db.AddBatch(batch, 1); err != nil {
							t.Fatal(err)
						}
					}
					for _, it := range batch {
						live = append(live, it.ID)
					}
				default:
					it := corpus[next]
					next++
					for _, db := range dbs {
						if err := db.Add(it.ID, it.Image); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live, it.ID)
				}
			}
			final := catalogState(t, kept)
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
			if reopened, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got := catalogState(t, reopened); got != final {
				t.Fatalf("reopened catalog differs from the never-closed one:\n%s\nwant\n%s", got, final)
			}
			newcomer := corpus[next]
			for _, db := range []*DB{kept, reopened} {
				if err := db.Add(newcomer.ID, newcomer.Image); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := catalogState(t, reopened), catalogState(t, kept); got != want {
				t.Fatalf("the next Add after the reopen differs:\n%s\nwant\n%s", got, want)
			}

			crashed, err := Open(crashDir)
			if err != nil {
				t.Fatal(err)
			}
			defer crashed.Close()
			reports, _ := crashed.Recovery()
			if !slices.ContainsFunc(reports, func(rs RecoveryStats) bool { return rs.Replayed }) {
				t.Fatal("the crash copy replayed no log: it tests no recovery")
			}
			if got := catalogState(t, crashed); got != midState {
				t.Fatalf("crash copy opens to\n%s\nwant the mid-run state\n%s", got, midState)
			}
			sh := crashed.owner(newcomer.ID)
			slot, first := len(sh.images), len(sh.refs)
			if err := crashed.Add(newcomer.ID, newcomer.Image); err != nil {
				t.Fatal(err)
			}
			gotSlot, ok := sh.byID.get(newcomer.ID)
			lo, hi := refRun(sh.refs, gotSlot)
			if !ok || gotSlot != slot || lo != first || hi-lo != len(slotRegions(sh, slot)) {
				t.Fatalf("the next Add on the crash copy took slot %d, payloads [%d, %d); want slot %d from payload %d",
					gotSlot, lo, hi, slot, first)
			}
		})
	}
}

// TestDurabilityRefusesOversizedImageRecord: an image whose catalog record
// would not fit one heap page is refused with ErrRecordTooLarge by Add,
// AddBatch and CreateFrom before anything is written: nothing is
// published, and a reopen finds the database as it was. The id is sized
// so that the record misses the page by one byte at the image's region
// count; one byte shorter, it fits.
func TestDurabilityRefusesOversizedImageRecord(t *testing.T) {
	opts := testOptions()
	items := frontCorpus(t)[:3]
	ext, err := region.NewExtractor(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := ext.Extract(items[2].Image)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(items[:2], 1); err != nil {
		t.Fatal(err)
	}
	room := soleShard(t, db).persist.heap.MaxRecord() - imageRecordSize("", len(regions))
	tooLong := strings.Repeat("x", room+1)
	before, versions := catalogState(t, db), db.VersionVector()

	wantRefused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("%s: got %v, want ErrRecordTooLarge", what, err)
		}
		if got := catalogState(t, db); got != before {
			t.Fatalf("%s: the refusal changed the catalog:\n%s\nwant\n%s", what, got, before)
		}
		if got := db.VersionVector(); !reflect.DeepEqual(got, versions) {
			t.Fatalf("%s: the refusal published: versions %v, want %v", what, got, versions)
		}
	}
	wantRefused("Add", db.Add(tooLong, items[2].Image))
	wantRefused("AddBatch", db.AddBatch([]BatchItem{items[2], {ID: tooLong, Image: items[2].Image}}, 1))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := catalogState(t, re); got != before {
		t.Fatalf("reopen after the refusals:\n%s\nwant\n%s", got, before)
	}
	if err := re.Add(tooLong[1:], items[2].Image); err != nil {
		t.Fatalf("a record that fits the page exactly: %v", err)
	}

	created, err := CreateFrom(t.TempDir(), opts, []BatchItem{items[0], {ID: tooLong, Image: items[2].Image}}, 1)
	if created != nil || !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("CreateFrom: got (%v, %v), want ErrRecordTooLarge", created, err)
	}
}

// TestDurabilityPolicyIsPerProcess: SetDurability changes the policy of
// the open database only. Open restores the policy given to Create, at
// one and three shards.
func TestDurabilityPolicyIsPerProcess(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := testOptions()
			opts.Shards = shards
			opts.Durability = DurabilityAlways
			dir := t.TempDir()
			db, err := Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			db.SetDurability(DurabilityNone)
			if got := db.Options().Durability; got != DurabilityNone {
				t.Fatalf("after SetDurability the policy is %v, want none", got)
			}
			if err := db.AddBatch(frontCorpus(t)[:4], 1); err != nil {
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
			if got := re.Options().Durability; got != DurabilityAlways {
				t.Fatalf("reopened policy is %v, want always", got)
			}
			for i, sh := range re.shards {
				if sh.persist.policy != DurabilityAlways {
					t.Fatalf("shard %d commits under %v, want always", i, sh.persist.policy)
				}
			}
		})
	}
}

// TestDurabilityCheckpointWritesOnlyPageFileAndLog: a checkpoint opens (so
// creates) no file and writes to index.db and wal.log only — every file
// the database opens goes through its FS seam, which counts each open and
// each write — and the shard directory holds those two files alone
// afterwards. What a checkpoint writes does not grow with the catalog: at
// 16 and 128 images, one with nothing new to write costs the same bytes,
// and one after a single Add writes the log's checkpoint and header and,
// to the page file, the pages the Add dirtied plus the meta page.
func TestDurabilityCheckpointWritesOnlyPageFileAndLog(t *testing.T) {
	idleBytes := map[string]int64{}
	for _, n := range []int{16, 128} {
		opts := testOptions()
		in := crashfs.New()
		opens := 0
		opts.FS = func(path string, flag int) (store.File, error) {
			opens++
			return in.Open(path, flag)
		}
		dir := t.TempDir()
		db, err := Create(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]BatchItem, n)
		for i := range items {
			items[i] = BatchItem{ID: fmt.Sprintf("img-%03d", i), Image: variedScene(i)}
		}
		if err := db.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		sh := soleShard(t, db)
		page := int64(sh.persist.pg.PhysicalPageSize())

		// checkpoint flushes the database and returns the bytes it wrote
		// per file, failing on any open or any other file.
		checkpoint := func(what string) map[string]int64 {
			t.Helper()
			in.Arm(0, -1)
			opens = 0
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if opens != 0 {
				t.Fatalf("n=%d %s: the checkpoint opened %d files", n, what, opens)
			}
			written := map[string]int64{}
			for _, op := range in.Trace() {
				name := filepath.Base(op.Path)
				if name != indexFileName && name != walFileName {
					t.Fatalf("n=%d %s: the checkpoint wrote to %s", n, what, op.Path)
				}
				if op.Kind == crashfs.OpWrite {
					written[name] += int64(op.Len)
				}
			}
			return written
		}
		idle := checkpoint("idle")
		if idle[indexFileName] != page {
			t.Fatalf("n=%d: an idle checkpoint wrote %d page-file bytes, want the meta page (%d)", n, idle[indexFileName], page)
		}
		idleBytes[fmt.Sprint(idle)]++

		if err := db.Add("newcomer", variedScene(1000)); err != nil {
			t.Fatal(err)
		}
		dirty := int64(sh.persist.pool.DirtyCount())
		after := checkpoint("after an Add")
		if after[indexFileName] != (dirty+1)*page || after[walFileName] != idle[walFileName] {
			t.Fatalf("n=%d: the checkpoint after an Add wrote %v; want %d dirty pages and the meta page (%d bytes) and the idle log bytes %d",
				n, after, dirty, (dirty+1)*page, idle[walFileName])
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		if want := []string{indexFileName, walFileName}; !reflect.DeepEqual(names, want) {
			t.Fatalf("n=%d: the shard directory holds %v, want %v", n, names, want)
		}
	}
	if len(idleBytes) != 1 {
		t.Fatalf("idle checkpoints wrote different bytes at 16 and 128 images: %v", idleBytes)
	}
}

// FuzzImageRecord feeds arbitrary bytes to the image record decoder. It
// never panics; what it accepts re-encodes to the same bytes.
func FuzzImageRecord(f *testing.F) {
	live := imageEntry{slot: 3, first: 7, count: 2, live: true, id: "img", w: 128, h: 85, rids: []uint64{1 << 16, 1<<16 | 1}}
	f.Add(live.encode())
	f.Add((&imageEntry{slot: 3, first: 7, count: 2}).encode())
	f.Add((&imageEntry{live: true}).encode())
	f.Add([]byte{tagImage})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		e, err := decodeImageEntry(rec)
		if err != nil {
			return
		}
		if got := e.encode(); !bytes.Equal(got, rec) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", e, got, rec)
		}
	})
}

// decodeImageEntry decodes one image or tombstone record on its own.
func decodeImageEntry(b []byte) (imageEntry, error) {
	e, _, err := appendImageEntry(nil, b)
	return e, err
}
