package walrus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"walrus/internal/obs"
)

// TestSnapshotPinnedVersion: a snapshot keeps observing the state it was
// acquired at while writers commit new versions, and releases its pinned
// index state afterwards.
func TestSnapshotPinnedVersion(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := db.VersionVector()[0]; got != 1 {
		t.Fatalf("fresh database at version %d, want 1", got)
	}
	if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("b", scene(gray, blue, 30, 30, 40)); err != nil {
		t.Fatal(err)
	}

	s, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if s.VersionVector()[0] != db.VersionVector()[0] {
		t.Fatalf("snapshot version %d != db version %d", s.VersionVector()[0], db.VersionVector()[0])
	}
	wantRegions := s.NumRegions()

	// Writers commit new versions: an add, a batch (one version), a
	// remove, and a durability change.
	if err := db.Add("c", scene(green, yellow, 50, 50, 40)); err != nil {
		t.Fatal(err)
	}
	batch := []BatchItem{
		{ID: "d", Image: scene(blue, red, 20, 20, 40)},
		{ID: "e", Image: scene(gray, yellow, 60, 60, 40)},
	}
	vBefore := db.VersionVector()[0]
	if err := db.AddBatch(batch, 1); err != nil {
		t.Fatal(err)
	}
	if got := db.VersionVector()[0]; got != vBefore+1 {
		t.Fatalf("AddBatch advanced version %d -> %d, want one step", vBefore, got)
	}
	if removed, err := db.Remove("a"); err != nil || !removed {
		t.Fatalf("Remove: %v %v", removed, err)
	}
	db.SetDurability(DurabilityNone)

	// The snapshot still answers from its pinned version.
	if s.Len() != 2 {
		t.Fatalf("snapshot Len = %d, want 2", s.Len())
	}
	if ids := s.IDs(); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("snapshot IDs = %v, want [a b]", ids)
	}
	if s.NumRegions() != wantRegions {
		t.Fatalf("snapshot NumRegions = %d, want %d", s.NumRegions(), wantRegions)
	}
	if _, ok := s.RegionsOf("a"); !ok {
		t.Fatal("snapshot lost removed image a")
	}
	if _, ok := s.RegionsOf("c"); ok {
		t.Fatal("snapshot sees image c added after acquisition")
	}
	if s.Stats().Images != 2 || s.Stats().Regions != wantRegions {
		t.Fatalf("snapshot stats %+v changed", s.Stats())
	}
	if s.Options().Durability != DurabilityGroupCommit {
		t.Fatal("snapshot observed the later durability change")
	}
	matches, _, err := s.QueryContext(context.Background(), scene(green, red, 10, 10, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID != "a" && m.ID != "b" {
			t.Fatalf("snapshot query matched %q, not in the pinned version", m.ID)
		}
	}

	// The live database sees the newest version.
	if db.Len() != 4 {
		t.Fatalf("db Len = %d, want 4", db.Len())
	}
	if db.Options().Durability != DurabilityNone {
		t.Fatal("db lost the durability change")
	}

	// Releasing the last pin drains the retained pre-images.
	s.Release()
	s.Release() // idempotent
	if vs := soleShard(t, db).tree.Versioned(); vs.Retained() != 0 {
		t.Fatalf("retained pre-images = %d after release, want 0", vs.Retained())
	}
}

// TestSnapshotConsistencyUnderWrites is the torn-read oracle: AddBatch
// publishes image pairs atomically, so every snapshot must observe both
// halves of a pair or neither — any torn catalog or index view fails the
// invariants. Runs under -race in the CI snapshot tier. The subtest is
// named for the R*-tree index the snapshot views.
func TestSnapshotConsistencyUnderWrites(t *testing.T) {
	t.Run("rstar", snapshotConsistencyUnderWrites)
}

func snapshotConsistencyUnderWrites(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("seed", scene(green, red, 20, 20, 40)); err != nil {
		t.Fatal(err)
	}

	const pairs = 6
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < pairs; i++ {
			batch := []BatchItem{
				{ID: fmt.Sprintf("pair-%d-a", i), Image: scene(gray, blue, (i*11)%70, (i*7)%70, 40)},
				{ID: fmt.Sprintf("pair-%d-b", i), Image: scene(green, yellow, (i*13)%70, (i*5)%70, 40)},
			}
			if err := db.AddBatch(batch, 1); err != nil {
				errs <- err
				return
			}
			if i%2 == 1 {
				if _, err := db.Remove(fmt.Sprintf("pair-%d-a", i)); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	q := scene(gray, blue, 30, 30, 40)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion := uint64(0)
			for i := 0; i < 40; i++ {
				s, err := db.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				if v := s.VersionVector()[0]; v < lastVersion {
					errs <- fmt.Errorf("version went backwards: %d after %d", v, lastVersion)
					s.Release()
					return
				} else {
					lastVersion = v
				}
				ids := s.IDs()
				// One published version, not a torn mix: counts agree
				// across every accessor of the same snapshot.
				if s.Len() != len(ids) || s.Stats().Images != s.Len() {
					errs <- fmt.Errorf("snapshot v%d: Len %d, IDs %d, Stats.Images %d",
						s.VersionVector()[0], s.Len(), len(ids), s.Stats().Images)
					s.Release()
					return
				}
				if s.NumRegions() != s.Stats().Regions {
					errs <- fmt.Errorf("snapshot v%d: NumRegions %d != Stats.Regions %d",
						s.VersionVector()[0], s.NumRegions(), s.Stats().Regions)
					s.Release()
					return
				}
				// Pair atomicity: AddBatch is one version, so "-b"
				// present requires "-a" present unless "-a" was
				// removed by a later (whole) version — and a removal
				// version also contains every earlier pair half.
				present := make(map[string]bool, len(ids))
				for _, id := range ids {
					present[id] = true
				}
				for i := 0; i < pairs; i++ {
					a, b := fmt.Sprintf("pair-%d-a", i), fmt.Sprintf("pair-%d-b", i)
					if present[a] && !present[b] {
						errs <- fmt.Errorf("snapshot v%d: torn batch: %s present without %s", s.VersionVector()[0], a, b)
						s.Release()
						return
					}
				}
				// Repeated reads of one snapshot are identical.
				if again := s.IDs(); len(again) != len(ids) {
					errs <- fmt.Errorf("snapshot v%d: IDs changed between reads: %d then %d", s.VersionVector()[0], len(ids), len(again))
					s.Release()
					return
				}
				// Query results name only images the snapshot knows.
				if i%8 == 0 {
					matches, _, err := s.QueryContext(context.Background(), q, DefaultQueryParams())
					if err != nil {
						errs <- err
						s.Release()
						return
					}
					for _, m := range matches {
						if !present[m.ID] {
							errs <- fmt.Errorf("snapshot v%d: query matched %q, unknown to the snapshot", s.VersionVector()[0], m.ID)
							s.Release()
							return
						}
					}
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r := soleShard(t, db).tree.Versioned().Retained(); r != 0 {
		t.Fatalf("retained pre-images = %d after all snapshots released, want 0", r)
	}
}

// TestSnapshotAcquireReleasePublishRace stresses the acquire retry loop:
// snapshots are acquired and released as fast as possible while a writer
// publishes continuously, and each must come back internally consistent
// with its pinned epoch. The final leak check proves acquire/release
// pairs balanced (active gauge zero, nothing retained).
func TestSnapshotAcquireReleasePublishRace(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	im := scene(green, red, 15, 15, 40)
	if err := db.Add("seed", im); err != nil {
		t.Fatal(err)
	}
	sh := soleShard(t, db)
	regions, err := sh.ext.Extract(im)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Reuse pre-extracted regions so the writer publishes at a high
		// rate instead of spending its time in wavelet transforms.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("churn-%d", i)
			sh.mu.Lock()
			err := sh.addExtractedLocked(id, im, regions)
			sh.publishLocked()
			sh.mu.Unlock()
			if err != nil {
				t.Errorf("add %s: %v", id, err)
				return
			}
			if i%3 == 2 {
				if _, err := db.Remove(fmt.Sprintf("churn-%d", i-1)); err != nil {
					t.Errorf("remove: %v", err)
					return
				}
			}
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				s, err := db.Snapshot()
				if err != nil {
					t.Errorf("Snapshot: %v", err)
					return
				}
				if s.Len() != len(s.IDs()) {
					t.Errorf("snapshot v%d: Len %d != len(IDs) %d", s.VersionVector()[0], s.Len(), len(s.IDs()))
					s.Release()
					return
				}
				s.Release()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	if active := reg.Snapshot().Gauges["walrus_snapshots_active"]; active != 0 {
		t.Fatalf("walrus_snapshots_active = %d after all releases, want 0", active)
	}
	if r := soleShard(t, db).tree.Versioned().Retained(); r != 0 {
		t.Fatalf("retained pre-images = %d with no pins, want 0", r)
	}
	if total := reg.Snapshot().Counters["walrus_snapshots_total"]; total < 4*300 {
		t.Fatalf("walrus_snapshots_total = %d, want >= %d", total, 4*300)
	}
}

// TestSnapshotDiskBacked pins a snapshot on a disk-backed database across
// adds, removes and a checkpoint: the buffer pool and paged store must
// keep serving the pinned epoch's nodes.
func TestSnapshotDiskBacked(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.VersionVector()[0]; got != 1 {
		t.Fatalf("fresh disk database at version %d, want 1", got)
	}
	if err := db.Add("a", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	s, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	if err := db.Add("b", scene(gray, blue, 40, 40, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	if s.Len() != 1 {
		t.Fatalf("snapshot Len = %d, want 1", s.Len())
	}
	matches, _, err := s.QueryContext(context.Background(), scene(green, red, 10, 10, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == "a" {
			found = true
		}
		if m.ID == "b" {
			t.Fatal("snapshot query matched image b added after acquisition")
		}
	}
	if !found {
		t.Fatal("snapshot query lost image a")
	}
	s.Release()
	if r := soleShard(t, db).tree.Versioned().Retained(); r != 0 {
		t.Fatalf("retained pre-images = %d after release, want 0", r)
	}

	// Reopen: version numbering restarts at 1 for the new process.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.VersionVector()[0]; got != 1 {
		t.Fatalf("reopened database at version %d, want 1", got)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", re.Len())
	}
}
