package walrus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"walrus/internal/imgio"
)

// TestConcurrentQueries: many goroutines query the same database while
// others add images; run with -race to check synchronization.
func TestConcurrentQueries(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.Add(fmt.Sprintf("seed-%d", i), scene(green, red, i*12, i*9, 40)); err != nil {
			t.Fatal(err)
		}
	}
	q := scene(green, red, 24, 24, 40)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	// Readers.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := db.QueryContext(context.Background(), q, DefaultQueryParams()); err != nil {
					errs <- err
					return
				}
				db.Stats()
				db.IDs()
			}
		}()
	}
	// Writers.
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("w%d-%d", g, i)
				if err := db.Add(id, scene(gray, blue, g*10+i, i*13, 40)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.Len() != 4+3*5 {
		t.Fatalf("Len = %d, want %d", db.Len(), 4+3*5)
	}
	// The database is still consistent: a query succeeds and every id is
	// queryable.
	matches, _, err := db.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches after concurrent load")
	}
}

// TestConcurrentMixedOracle runs adds, removes and queries concurrently
// over a seeded corpus, then checks the surviving database answers queries
// exactly like a serially built oracle containing the same final image
// set. It is short-mode friendly and meant to run under -race in CI.
func TestConcurrentMixedOracle(t *testing.T) {
	type item struct {
		id string
		im *imgio.Image
	}
	var seeds, added []item
	for i := 0; i < 8; i++ {
		seeds = append(seeds, item{fmt.Sprintf("seed-%d", i), scene(green, red, (i*9)%70, (i*13)%70, 40)})
	}
	for i := 0; i < 6; i++ {
		added = append(added, item{fmt.Sprintf("new-%d", i), scene(gray, blue, (i*11)%70, (i*7)%70, 44)})
	}
	removed := []string{"seed-1", "seed-4", "seed-6"}

	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		if err := db.Add(s.id, s.im); err != nil {
			t.Fatal(err)
		}
	}

	queries := []*imgio.Image{
		scene(green, red, 20, 20, 40),
		scene(gray, blue, 30, 30, 44),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Adders: two goroutines insert disjoint halves of the new images.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(added); i += 2 {
				if err := db.Add(added[i].id, added[i].im); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Remover: deletes a fixed subset of the seeds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range removed {
			if _, err := db.Remove(id); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Queriers: hammer reads while the writers run. Each iteration works
	// on one explicit snapshot and checks it observed exactly one
	// published version: every accessor agrees on the image set, and
	// query results never name an image the snapshot does not contain.
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := DefaultQueryParams()
			lastVersion := uint64(0)
			for i := 0; i < 8; i++ {
				s, err := db.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				if v := s.VersionVector()[0]; v < lastVersion {
					errs <- fmt.Errorf("snapshot version went backwards: %d after %d", v, lastVersion)
					s.Release()
					return
				} else {
					lastVersion = v
				}
				ids := s.IDs()
				if s.Len() != len(ids) || s.Stats().Images != s.Len() {
					errs <- fmt.Errorf("torn snapshot v%d: Len %d, IDs %d, Stats.Images %d",
						s.VersionVector()[0], s.Len(), len(ids), s.Stats().Images)
					s.Release()
					return
				}
				present := make(map[string]bool, len(ids))
				for _, id := range ids {
					present[id] = true
				}
				matches, _, err := s.QueryContext(context.Background(), queries[i%len(queries)], p)
				if err != nil {
					errs <- err
					s.Release()
					return
				}
				for _, m := range matches {
					if !present[m.ID] {
						errs <- fmt.Errorf("snapshot v%d: query matched %q outside its version", s.VersionVector()[0], m.ID)
						s.Release()
						return
					}
				}
				s.Stats()
				s.RegionsOf(seeds[0].id)
				s.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial oracle over the expected final image set.
	oracle, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	gone := make(map[string]bool)
	for _, id := range removed {
		gone[id] = true
	}
	want := 0
	for _, s := range seeds {
		if gone[s.id] {
			continue
		}
		if err := oracle.Add(s.id, s.im); err != nil {
			t.Fatal(err)
		}
		want++
	}
	for _, a := range added {
		if err := oracle.Add(a.id, a.im); err != nil {
			t.Fatal(err)
		}
		want++
	}
	if db.Len() != want {
		t.Fatalf("Len = %d after mixed workload, want %d", db.Len(), want)
	}

	// Every query must rank identically: the probe returns all regions in
	// the epsilon ball regardless of index construction order, and the
	// quick matcher's bitmap arithmetic is order-independent.
	for qi, q := range queries {
		p := DefaultQueryParams()
		got, _, err := db.QueryContext(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		wantMatches, _, err := oracle.QueryContext(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantMatches) {
			t.Fatalf("query %d: %d matches, oracle found %d", qi, len(got), len(wantMatches))
		}
		for i := range got {
			if got[i].ID != wantMatches[i].ID || got[i].Similarity != wantMatches[i].Similarity {
				t.Fatalf("query %d rank %d: got %s/%v, oracle %s/%v",
					qi, i, got[i].ID, got[i].Similarity, wantMatches[i].ID, wantMatches[i].Similarity)
			}
		}
	}
}

// TestConcurrentRemove: removals interleaved with queries stay consistent.
func TestConcurrentRemove(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := db.Add(fmt.Sprintf("img-%d", i), scene(green, red, i*8, i*6, 40)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	q := scene(green, red, 20, 20, 40)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i += 2 {
			if _, err := db.Remove(fmt.Sprintf("img-%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, _, err := db.QueryContext(context.Background(), q, DefaultQueryParams()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if db.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", db.Len(), n/2)
	}
}
