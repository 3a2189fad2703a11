package walrus

import (
	"fmt"

	"walrus/internal/rstar"
)

// BuildFrom constructs a fresh in-memory database from a whole collection
// at once: region extraction runs on up to workers goroutines (0 =
// GOMAXPROCS) and the R*-tree is bulk-loaded instead of built by one
// insert per region: rstar.BulkLoad packs full nodes by recursive
// variance splits, which is both faster and yields a smaller,
// better-clustered index than incremental insertion. Use this for the
// initial indexing pass the paper describes ("indexing of images is done
// only once at the beginning"); Add/Remove work normally on the result.
// With opts.Shards above 1 the collection is partitioned by id hash and
// each shard is bulk-loaded from its part; the result equals New followed
// by AddBatch up to index layout, and so do rankings under every matcher.
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

// catalogBulkLocked is the catalog half of a bulk load into a shard that
// has published nothing yet, so its caller owns the catalog exclusively.
// It extracts every item's regions on the worker pool, enters the images
// and their regions into the catalog in item order (enterImageLocked) and
// returns the index keys and payloads the bulk load packs.
func (sh *shard) catalogBulkLocked(items []BatchItem, workers int) ([]rstar.Rect, []int64, error) {
	extracted, errs := sh.extractAll(items, workers)
	if err := sh.checkRecordsFit(items, extracted); err != nil {
		return nil, nil, err
	}
	total := 0
	for _, regions := range extracted {
		total += len(regions)
	}
	sh.cols.grow(total)
	rects := make([]rstar.Rect, 0, total)
	payloads := make([]int64, 0, total)
	for i, it := range items {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("walrus: extracting regions of %q: %w", it.ID, errs[i])
		}
		first, err := sh.enterImageLocked(it.ID, it.Image, extracted[i])
		if err != nil {
			return nil, nil, err
		}
		for local, r := range extracted[i] {
			payloads = append(payloads, int64(first+local))
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
// half-built database. The marker is the log's first record, synced
// before any page but the page file's header is written, so a crash
// before it is durable leaves no options record and Open fails too: no
// crash leaves an empty database standing in for the items.
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
// database and resets the log — retiring the rebuild marker written by
// beginBulkLoad.
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
