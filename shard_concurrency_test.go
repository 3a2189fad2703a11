package walrus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"walrus/internal/obs"
)

// TestShardFanoutConsistency is the cross-shard mixed oracle: readers
// acquire sharded snapshots under write churn and assert each query
// observed exactly one consistent version per shard — the version vector
// is complete and per-shard monotone, every accessor agrees on the image
// set, and query results never name an image outside the pinned vector.
// Afterwards the per-shard and fleet active-snapshots gauges must drain
// to zero (the leak check).
func TestShardFanoutConsistency(t *testing.T) {
	const shards = 3
	setProcs(t, 2)
	opts := testOptions()
	opts.Shards = shards
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.SetMetrics(reg)

	var seeds []BatchItem
	for i := 0; i < 9; i++ {
		seeds = append(seeds, BatchItem{
			ID:    fmt.Sprintf("seed-%d", i),
			Image: scene(green, red, (i*9)%70, (i*13)%70, 40),
		})
	}
	if err := s.AddBatch(seeds, 0); err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 24, 24, 40)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Adders: disjoint id streams, hashing across all shards.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				id := fmt.Sprintf("new-%d-%d", g, i)
				if err := s.Add(id, scene(gray, blue, (i*11)%70, (g*17+i*7)%70, 44)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Remover.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range []string{"seed-1", "seed-4", "seed-7"} {
			if _, err := s.Remove(id); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Readers: per-shard version monotonicity plus set consistency.
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := DefaultQueryParams()
			last := make([]uint64, shards)
			for i := 0; i < 8; i++ {
				ss, err := s.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				vv := ss.VersionVector()
				if len(vv) != shards {
					errs <- fmt.Errorf("version vector has %d entries, want %d", len(vv), shards)
					ss.Release()
					return
				}
				for k, v := range vv {
					if v < last[k] {
						errs <- fmt.Errorf("shard %d version went backwards: %d after %d", k, v, last[k])
						ss.Release()
						return
					}
					last[k] = v
				}
				ids := ss.IDs()
				st := ss.Stats()
				if ss.Len() != len(ids) || st.Images != len(ids) {
					errs <- fmt.Errorf("torn sharded snapshot %v: Len %d, IDs %d, Stats.Images %d",
						vv, ss.Len(), len(ids), st.Images)
					ss.Release()
					return
				}
				sumImages, sumRegions := 0, 0
				for _, per := range st.PerShard {
					sumImages += per.Images
					sumRegions += per.Regions
				}
				if sumImages != st.Images || sumRegions != st.Regions {
					errs <- fmt.Errorf("unpinned aggregation %v: totals %d/%d, per-shard sums %d/%d",
						vv, st.Images, st.Regions, sumImages, sumRegions)
					ss.Release()
					return
				}
				present := make(map[string]bool, len(ids))
				for _, id := range ids {
					present[id] = true
				}
				matches, _, err := ss.QueryContext(context.Background(), q, p)
				if err != nil {
					errs <- err
					ss.Release()
					return
				}
				for _, m := range matches {
					if !present[m.ID] {
						errs <- fmt.Errorf("snapshot %v: query matched %q outside its version vector", vv, m.ID)
						ss.Release()
						return
					}
				}
				ss.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if want := 9 + 12 - 3; s.Len() != want {
		t.Fatalf("Len = %d after mixed workload, want %d", s.Len(), want)
	}

	// Leak check: every snapshot the workload acquired (including the
	// one-shot readers' internal ones) has been released, per shard and
	// fleet-wide.
	gauges := s.Metrics().Gauges
	if active := gauges["walrus_snapshots_active"]; active != 0 {
		t.Errorf("fleet walrus_snapshots_active = %d after workload, want 0", active)
	}
	for k := 0; k < shards; k++ {
		name := fmt.Sprintf("walrus_shard%d_snapshots_active", k)
		if active, ok := gauges[name]; !ok {
			t.Errorf("gauge %s missing", name)
		} else if active != 0 {
			t.Errorf("%s = %d after workload, want 0", name, active)
		}
	}
}

// TestShardStatsPinnedAggregation is the regression for the db.mu audit:
// Stats totals and the per-shard breakdown must come from one pinned
// version vector, so the totals always equal the per-shard sums even
// while writers churn every shard.
func TestShardStatsPinnedAggregation(t *testing.T) {
	opts := testOptions()
	opts.Shards = 4
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("churn-%d", i)
			if err := s.Add(id, scene(green, red, (i*7)%70, (i*11)%70, 40)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 {
				if _, err := s.Remove(fmt.Sprintf("churn-%d", i-2)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 30; i++ {
		st := s.Stats()
		sumImages, sumRegions := 0, 0
		for _, per := range st.PerShard {
			sumImages += per.Images
			sumRegions += per.Regions
		}
		if sumImages != st.Images || sumRegions != st.Regions {
			t.Errorf("iteration %d: totals %d/%d but per-shard sums %d/%d",
				i, st.Images, st.Regions, sumImages, sumRegions)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardSetDurabilityCoherence is the regression for the audit's
// SetDurability finding: concurrent policy flips and Options reads on a
// disk-backed fleet must stay race-free (Sharded.mu guards the fleet
// option) and every shard must end on the final policy.
func TestShardSetDurabilityCoherence(t *testing.T) {
	opts := testOptions()
	opts.Shards = 3
	s, err := Create(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add("seed", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	policies := []DurabilityPolicy{DurabilityAlways, DurabilityNone, DurabilityGroupCommit}
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				s.SetDurability(policies[(g+i)%len(policies)])
				got := s.Options().Durability
				found := false
				for _, p := range policies {
					if got == p {
						found = true
					}
				}
				if !found {
					t.Errorf("Options().Durability = %v, not a policy any writer set", got)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := s.Add(fmt.Sprintf("w-%d", i), scene(gray, blue, i*6, i*8, 40)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	s.SetDurability(DurabilityAlways)
	if got := s.Options().Durability; got != DurabilityAlways {
		t.Fatalf("Options().Durability = %v after final SetDurability, want %v", got, DurabilityAlways)
	}
	ss, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Release()
	if got := ss.Options().Durability; got != DurabilityAlways {
		t.Errorf("snapshot Options().Durability = %v, want %v", got, DurabilityAlways)
	}
}
