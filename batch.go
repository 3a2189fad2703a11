package walrus

import (
	"cmp"
	"fmt"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
)

// BatchItem is one image to index in AddBatch.
type BatchItem struct {
	ID    string
	Image *imgio.Image
}

// AddBatch indexes many images, running the expensive region extraction on
// up to workers goroutines (0 = the database's Parallelism option, itself
// defaulting to GOMAXPROCS) while keeping index insertion ordered and
// serialized — the resulting database is identical for every worker
// count. The batch is partitioned by owning shard, and each shard
// publishes its part as a single catalog version, so concurrent readers
// observe either none or all of a shard's part (unless it fails partway:
// a shard stops at its first error, and its items before the failing one
// remain indexed). There is no cross-shard atomicity: a reader can
// observe one shard's part before another's commits. Every shard attempts
// its part even when one fails; the lowest-numbered shard's error is
// returned.
func (db *DB) AddBatch(items []BatchItem, workers int) error {
	parts := partitionItems(items, len(db.shards))
	return cmp.Or(db.fanOut(db.shards[0].ingestWorkers(workers), func(i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		return db.shards[i].addBatch(parts[i], workers)
	})...)
}

// addBatch is AddBatch on one shard: extraction on the worker pool, then
// insertion in item order under the writer lock, published as one
// version.
func (sh *shard) addBatch(items []BatchItem, workers int) error {
	regions, errs := sh.extractAll(items, workers)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.publishLocked()
	for i, it := range items {
		if errs[i] != nil {
			return fmt.Errorf("walrus: extracting regions of %q: %w", it.ID, errs[i])
		}
		if err := sh.addExtractedLocked(it.ID, it.Image, regions[i]); err != nil {
			return err
		}
	}
	return nil
}

// extractAll runs region extraction for every item on the resolved worker
// pool and returns the per-item region sets and errors in item order.
func (sh *shard) extractAll(items []BatchItem, workers int) ([][]region.Region, []error) {
	extracted := make([][]region.Region, len(items))
	errs := make([]error, len(items))
	parallel.For(len(items), sh.ingestWorkers(workers), func(i int) {
		extracted[i], errs[i] = sh.ext.Extract(items[i].Image)
	})
	return extracted, errs
}

// addExtractedLocked is add's insertion half, reused by addBatch. Caller
// holds sh.mu exclusively and publishes after the last insertion.
func (sh *shard) addExtractedLocked(id string, im *imgio.Image, regions []region.Region) error {
	m := sh.om.Load()
	var start time.Time
	if m != nil {
		start = statsClock()
	}
	if _, dup := sh.byID.get(id); dup {
		return fmt.Errorf("walrus: image %q %w", id, ErrDuplicateID)
	}
	imgIdx := len(sh.images)
	// Appends extend the catalog past any published length, which never
	// moves published elements; the id index copies only the chunk it
	// touches.
	sh.images = append(sh.images, imageRecord{ID: id, W: im.W, H: im.H, Regions: regions})
	sh.byID.set(id, imgIdx)
	var rids []uint64
	for local, r := range regions {
		payload := int64(len(sh.refs))
		ref := regionRef{Image: imgIdx, Local: local}
		if sh.persist != nil {
			rec, err := r.MarshalBinary()
			if err != nil {
				return fmt.Errorf("walrus: encoding region of %q: %w", id, err)
			}
			rid, err := sh.persist.heap.Insert(rec)
			if err != nil {
				return fmt.Errorf("walrus: storing region of %q: %w", id, err)
			}
			ref.RID = rid.Pack()
			rids = append(rids, ref.RID)
		}
		sh.refs = append(sh.refs, ref)
		if err := sh.tree.Insert(signatureRect(sh.opts.UseBBox, r), payload); err != nil {
			return fmt.Errorf("walrus: indexing region of %q: %w", id, err)
		}
	}
	sh.liveRegions += len(regions)
	if sh.persist != nil {
		if err := sh.commitLocked(&walDelta{Op: deltaAdd, ID: id, W: im.W, H: im.H, RIDs: rids}); err != nil {
			return err
		}
	}
	if m != nil {
		d := statsSince(start)
		m.ingests.Inc()
		m.ingestRegions.Add(uint64(len(regions)))
		m.ingestSeconds.Observe(d.Seconds())
		m.images.Set(int64(sh.byID.len()))
		m.regions.Add(int64(len(regions)))
		m.reg.RecordSpan("ingest", 0, start, d,
			obs.Attr{Key: "regions", Value: int64(len(regions))})
	}
	return nil
}

// Stats summarizes database state. Images, Regions, SignatureDim and
// DiskBacked are logical: the same corpus yields the same values at
// every shard count.
type Stats struct {
	// Images is the number of indexed images; Regions the number of live
	// regions.
	Images, Regions int
	// IndexHeight is the R*-tree height (1 = the root is a leaf).
	IndexHeight int
	// SignatureDim is the dimensionality of indexed region signatures.
	SignatureDim int
	// DiskBacked reports whether the database persists to a directory.
	DiskBacked bool
	// Shards is the shard count. On more than one shard the fields above
	// are totals (IndexHeight the tallest shard's), and PerShard holds
	// each shard's own row, indexed by shard; on one shard PerShard is
	// nil.
	Shards   int
	PerShard []Stats
}
