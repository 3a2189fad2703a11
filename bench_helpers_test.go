package walrus_test

import (
	"path/filepath"
	"testing"

	"walrus/internal/rstar"
	"walrus/internal/store"
)

// newBenchPager builds a paged R*-tree node store in a temp directory.
func newBenchPager(b *testing.B) (rstar.NodeStore, error) {
	b.Helper()
	pg, err := store.Create(filepath.Join(b.TempDir(), "bench.db"), store.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	b.Cleanup(func() { pg.Close() })
	pool, err := store.NewBufferPool(pg, 128)
	if err != nil {
		return nil, err
	}
	return rstar.NewPagedStore(pg, pool, 12, rstar.BoxLeaves)
}
