package walrus

import (
	"context"
	"path/filepath"
	"testing"

	"walrus/internal/dataset"
)

// queryAllocFixture indexes a seeded synthetic dataset twice, in memory
// and on disk, with the paper's default options: the query traffic of
// the query benchmarks at a test-sized scale.
func queryAllocFixture(t *testing.T) (items []BatchItem, mem, disk *DB) {
	t.Helper()
	dopts := dataset.DefaultOptions()
	dopts.Seed = 34
	dopts.PerCategory = 100
	ds, err := dataset.Generate(dopts)
	if err != nil {
		t.Fatal(err)
	}
	items = make([]BatchItem, len(ds.Items))
	for i, it := range ds.Items {
		items[i] = BatchItem{ID: it.ID, Image: it.Image}
	}
	if mem, err = BuildFrom(DefaultOptions(), items, 0); err != nil {
		t.Fatal(err)
	}
	if disk, err = CreateFrom(filepath.Join(t.TempDir(), "idx"), DefaultOptions(), items, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return items, mem, disk
}

// TestQueryAllocations bounds what a query allocates after its regions
// are in hand: the probe, aggregate and score stages and the returned
// ranking. QueryByID starts from stored regions; for QueryContext the
// allocations of extracting the query image are measured on their own
// and subtracted. The parent counts are the same measurements taken
// with per-candidate maps in aggregation and scoring, a full sort of
// every candidate and a per-query score fan-out.
func TestQueryAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1200-image fixture twice")
	}
	// Measured with the same fixture and queries before the rewrite; all
	// four paths allocated the same after extraction.
	const parentAllocs = 276
	items, mem, disk := queryAllocFixture(t)
	p := DefaultQueryParams()
	p.Limit = 10
	ctx := context.Background()
	queries := []BatchItem{items[0], items[len(items)/3], items[2*len(items)/3]}

	for _, tc := range []struct {
		name   string
		db     *DB
		pixels bool
	}{
		{"QueryByID/mem", mem, false},
		{"QueryByID/disk", disk, false},
		{"QueryContext/mem", mem, true},
		{"QueryContext/disk", disk, true},
	} {
		total := 0.0
		for _, q := range queries {
			q := q
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				if tc.pixels {
					_, _, err = tc.db.QueryContext(ctx, q.Image, p)
				} else {
					_, _, err = tc.db.QueryByID(ctx, q.ID, p)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.pixels {
				allocs -= testing.AllocsPerRun(5, func() { _, err = tc.db.shards[0].ext.Extract(q.Image) })
				if err != nil {
					t.Fatal(err)
				}
			}
			total += allocs
		}
		perQuery := total / float64(len(queries))
		t.Logf("%s: %.1f allocations per query after extraction (parent %d)", tc.name, perQuery, parentAllocs)
		if perQuery > parentAllocs/4 {
			t.Errorf("%s allocates %.1f times per query, want at most %d", tc.name, perQuery, parentAllocs/4)
		}
	}
}
