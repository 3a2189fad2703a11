package walrus

import (
	"cmp"
	"fmt"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/match"
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
// up to workers goroutines (0 = GOMAXPROCS) while keeping index insertion
// ordered and serialized — the resulting database is identical for every
// worker count. The batch is partitioned by owning shard, and each shard
// publishes its part as a single catalog version, so concurrent readers
// observe either none or all of a shard's part (unless it fails partway:
// a shard stops at its first error, and its items before the failing one
// remain indexed). A shard whose part holds an image its disk catalog
// cannot record (ErrRecordTooLarge) refuses the whole part and publishes
// nothing. There is no cross-shard atomicity: a reader can
// observe one shard's part before another's commits. Every shard attempts
// its part even when one fails; the lowest-numbered shard's error is
// returned.
func (db *DB) AddBatch(items []BatchItem, workers int) error {
	parts := partitionItems(items, len(db.shards))
	return cmp.Or(db.fanOut(workers, func(i int) error {
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
	if sh.closed {
		return ErrClosed
	}
	if err := sh.checkRecordsFit(items, regions); err != nil {
		return err
	}
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

// extractAll runs region extraction for every item on up to workers
// goroutines (0 = GOMAXPROCS) and returns the per-item region sets and
// errors in item order.
func (sh *shard) extractAll(items []BatchItem, workers int) ([][]region.Region, []error) {
	extracted := make([][]region.Region, len(items))
	errs := make([]error, len(items))
	parallel.For(len(items), workers, func(i int) {
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
	first, err := sh.enterImageLocked(id, im, regions)
	if err != nil {
		return err
	}
	for local, r := range regions {
		if err := sh.tree.Insert(signatureRect(sh.opts.UseBBox, r), int64(first+local)); err != nil {
			// The catalog holds the image, the index only part of it.
			sh.removed++
			return fmt.Errorf("walrus: indexing region of %q: %w", id, err)
		}
	}
	sh.liveRegions += len(regions)
	if err := sh.commitLocked(); err != nil {
		return err
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

// enterImageLocked enters image id with its extracted regions into the
// catalog, the one path of Add, AddBatch and the bulk loads: the image
// takes the next slot and its regions the next payload numbers, which it
// returns the first of, and their slots of the region columns; the caller
// indexes the regions. On a disk shard it first writes each region to the
// heap, marshalled from the extractor's output, then the image record
// naming them (see imageEntry). Caller owns the catalog exclusively and has
// checked that the record fits (checkRecordsFit).
func (sh *shard) enterImageLocked(id string, im *imgio.Image, regions []region.Region) (int, error) {
	if err := checkGrid(sh.opts.Region.BitmapGrid, regions); err != nil {
		return 0, fmt.Errorf("walrus: image %q: %w", id, err)
	}
	for local := range regions {
		if err := sh.cols.checkShape(local, &regions[local]); err != nil {
			return 0, fmt.Errorf("walrus: image %q: %w", id, err)
		}
	}
	if _, dup := sh.byID.get(id); dup {
		return 0, fmt.Errorf("walrus: image %q %w", id, ErrDuplicateID)
	}
	slot, first := len(sh.images), len(sh.refs)
	rids := make([]uint64, len(regions)) // RID 0 in memory
	if p := sh.persist; p != nil {
		for local, r := range regions {
			rec, err := r.MarshalBinary()
			if err != nil {
				return 0, fmt.Errorf("walrus: encoding region of %q: %w", id, err)
			}
			rid, err := p.heap.Insert(rec)
			if err != nil {
				return 0, fmt.Errorf("walrus: storing region of %q: %w", id, err)
			}
			rids[local] = rid.Pack()
		}
		e := imageEntry{slot: uint64(slot), first: uint64(first), count: len(regions), live: true, id: id, w: im.W, h: im.H, rids: rids}
		rid, err := p.heap.Insert(e.encode())
		if err != nil {
			return 0, fmt.Errorf("walrus: storing the record of image %q: %w", id, err)
		}
		p.recs = append(p.recs, rid)
	}
	// Appends extend the catalog past any published length, which never
	// moves published elements; the id index copies only the chunk it
	// touches. The columns keep copies of the regions' fields, so the
	// extractor's slices are garbage once the caller has indexed them.
	sh.images = append(sh.images, imageRecord{ID: id, W: im.W, H: im.H, First: first, Count: len(regions)})
	sh.byID.set(id, slot)
	for local, rid := range rids {
		sh.refs = append(sh.refs, regionRef{Image: slot, Local: local, RID: rid})
		sh.cols.add(&regions[local])
	}
	return first, nil
}

// checkRecordsFit refuses, with ErrRecordTooLarge, a disk shard's batch
// holding an image whose record would not fit one heap page, so that
// nothing of the batch is written. regions holds each item's extracted
// regions.
func (sh *shard) checkRecordsFit(items []BatchItem, regions [][]region.Region) error {
	if sh.persist == nil {
		return nil
	}
	for i, it := range items {
		if n := len(regions[i]); imageRecordSize(it.ID, n) > sh.persist.heap.MaxRecord() {
			return fmt.Errorf("walrus: image %q with %d regions: %w", it.ID, n, ErrRecordTooLarge)
		}
	}
	return nil
}

// checkGrid checks that every region's bitmap is on the k×k grid the
// database's options fix. Regions enter a catalog only past it — Add,
// AddBatch, the bulk loads, and Open's region load, which WAL replay
// feeds too — so the scorer trusts every catalog bitmap
// (match.ScoreTrusted).
func checkGrid(k int, regions []region.Region) error {
	for i := range regions {
		if err := checkBitmap(k, i, regions[i].Bitmap); err != nil {
			return err
		}
	}
	return nil
}

// checkBitmap is checkGrid's test of region local's bitmap b.
func checkBitmap(k, local int, b region.Bitmap) error {
	if match.OnGrid(b, k) {
		return nil
	}
	return fmt.Errorf("walrus: region %d has a bitmap of grid %d with %d words, the database's grid is %d",
		local, b.K, len(b.Words), k)
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
