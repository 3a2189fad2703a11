package walrus

import (
	"errors"
	"fmt"

	"walrus/internal/rstar"
)

// BuildFrom constructs a fresh in-memory database from a whole collection
// at once: region extraction runs on up to workers goroutines (0 = the
// Parallelism option, itself defaulting to GOMAXPROCS) and the R*-tree is
// bulk-loaded instead of built by one insert per region: rstar.BulkLoad
// packs full nodes by recursive variance splits, which is both faster
// and yields a smaller, better-clustered index than incremental
// insertion. Use this for the initial indexing pass the paper describes
// ("indexing of images is done only once at the beginning"); Add/Remove
// work normally on the result. With opts.Shards above 1 the collection is
// partitioned by id hash and each shard is bulk-loaded from its part; the
// result equals New followed by AddBatch up to index layout, and so do
// rankings under every matcher.
func BuildFrom(opts Options, items []BatchItem, workers int) (*DB, error) {
	return buildShards(opts, items, func(_ int, opts Options, part []BatchItem) (*shard, error) {
		return buildShard(opts, part, workers)
	})
}

// buildShard bulk-loads one in-memory shard.
func buildShard(opts Options, items []BatchItem, workers int) (*shard, error) {
	sh, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	rects, payloads, err := sh.catalogBulkLocked(items, workers)
	if err != nil {
		return nil, err
	}

	capacity := opts.NodeCapacity
	if capacity == 0 {
		capacity = 16
	}
	ms, err := rstar.NewMemStore(opts.Region.Dim(), capacity, leafKind(opts))
	if err != nil {
		return nil, err
	}
	// Bulk-load through the versioned store before the first publish:
	// construction writes are epoch-0 and retain no pre-images.
	tree, err := rstar.BulkLoad(rstar.NewVersioned(ms), rects, payloads)
	if err != nil {
		return nil, err
	}
	sh.tree = tree
	sh.liveRegions = len(sh.refs)
	sh.publishLocked()
	return sh, nil
}

// CreateFrom builds a disk-backed database over a whole collection in one
// pass: region extraction runs on up to workers goroutines, region
// payloads stream into the heap file, and the paged R*-tree is bulk-loaded
// by variance-split packing (see BuildFrom), one full page per node but
// the last two of each level. This is the fastest way to run the paper's
// one-time indexing phase against a directory-resident database. The
// layout is Create's: with opts.Shards above 1, one unlogged bulk load per
// shard directory.
func CreateFrom(dir string, opts Options, items []BatchItem, workers int) (*DB, error) {
	return createLayout(dir, opts, items, func(dir string, opts Options, part []BatchItem) (*shard, error) {
		return createShardFrom(dir, opts, part, workers)
	})
}

// createShardFrom bulk-loads one disk-backed shard in dir.
func createShardFrom(dir string, opts Options, items []BatchItem, workers int) (*shard, error) {
	sh, err := createShardFiles(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := sh.beginBulkLoad(); err != nil {
		return nil, errors.Join(err, sh.close())
	}
	rects, payloads, err := sh.catalogBulkLocked(items, workers)
	if err != nil {
		return nil, errors.Join(err, sh.close())
	}

	// Bulk-load through the same versioned store the empty tree was
	// created on; the database has published no version yet, so the load
	// retains no pre-images, and the publish below produces version 1.
	tree, err := rstar.BulkLoad(sh.tree.Versioned(), rects, payloads)
	if err != nil {
		return nil, errors.Join(err, sh.close())
	}
	sh.tree = tree
	sh.liveRegions = len(sh.refs)
	if err := sh.endBulkLoad(); err != nil {
		return nil, errors.Join(err, sh.close())
	}
	sh.publishLocked()
	return sh, nil
}

// catalogBulkLocked is the catalog half of a bulk load into a shard that
// has published nothing yet, so its caller owns the catalog exclusively.
// It extracts every item's regions on the worker pool, enters the images
// and their regions into the catalog in item order — on a disk shard
// storing each region in the heap — and returns the index keys and
// payloads the bulk load packs.
func (sh *shard) catalogBulkLocked(items []BatchItem, workers int) ([]rstar.Rect, []int64, error) {
	extracted, errs := sh.extractAll(items, workers)
	var rects []rstar.Rect
	var payloads []int64
	for i, it := range items {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("walrus: extracting regions of %q: %w", it.ID, errs[i])
		}
		if err := checkGrid(sh.opts.Region.BitmapGrid, extracted[i]); err != nil {
			return nil, nil, fmt.Errorf("walrus: image %q: %w", it.ID, err)
		}
		if _, dup := sh.byID.get(it.ID); dup {
			return nil, nil, fmt.Errorf("walrus: duplicate image id %q", it.ID)
		}
		imgIdx := len(sh.images)
		sh.images = append(sh.images, imageRecord{ID: it.ID, W: it.Image.W, H: it.Image.H, Regions: extracted[i]})
		sh.byID.set(it.ID, imgIdx)
		for local, r := range extracted[i] {
			ref := regionRef{Image: imgIdx, Local: local}
			if sh.persist != nil {
				rid, err := sh.storeRegion(it.ID, r)
				if err != nil {
					return nil, nil, err
				}
				ref.RID = rid
			}
			payloads = append(payloads, int64(len(sh.refs)))
			sh.refs = append(sh.refs, ref)
			rects = append(rects, signatureRect(sh.opts.UseBBox, r))
		}
	}
	return rects, payloads, nil
}

// beginBulkLoad suspends write-ahead logging for a bulk rebuild: logging
// full page images of a from-scratch load would double the write volume
// for no benefit, since there is no prior state worth recovering to. A
// durable rebuild marker makes the trade explicit — a crash before
// endBulkLoad leaves the marker in the log, and Open refuses the
// directory with a "rebuild interrupted" error instead of presenting a
// half-built database.
func (sh *shard) beginBulkLoad() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.persist
	if p == nil {
		return nil
	}
	p.wal.AppendApp(kindRebuild, nil)
	p.wal.AppendCommit()
	if err := p.wal.Sync(); err != nil {
		return err
	}
	p.unlogged = true
	p.pool.SetFlushHook(nil)
	return nil
}

// endBulkLoad resumes logging and checkpoints, which flushes the built
// database, snapshots the catalog, and resets the log — retiring the
// rebuild marker written by beginBulkLoad.
func (sh *shard) endBulkLoad() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.persist
	if p == nil {
		return nil
	}
	p.unlogged = false
	p.pool.SetFlushHook(p.flushHook)
	return sh.checkpointLocked(false)
}
