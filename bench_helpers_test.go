package walrus_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"walrus/internal/rstar"
	"walrus/internal/store"
)

// newBenchPager builds a paged R*-tree node store in a temp directory.
func newBenchPager(b *testing.B) (rstar.NodeStore, error) {
	b.Helper()
	f, err := os.Create(filepath.Join(b.TempDir(), "bench.db"))
	if err != nil {
		return nil, err
	}
	pg, err := store.CreateFile(f, store.DefaultPageSize)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	b.Cleanup(func() { pg.Close() })
	pool, err := store.NewBufferPool(pg, 128)
	if err != nil {
		return nil, err
	}
	return rstar.NewPagedStore(pg, pool, 12, rstar.BoxLeaves)
}
