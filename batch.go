package walrus

import (
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
// count. The whole batch is published as a single catalog version, so
// concurrent readers observe either none or all of its images (unless it
// fails partway: it stops at the first error, and items before the
// failing one remain indexed).
func (db *DB) AddBatch(items []BatchItem, workers int) error {
	regions, errs := db.extractAll(items, workers)
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publishLocked()
	for i, it := range items {
		if errs[i] != nil {
			return fmt.Errorf("walrus: extracting regions of %q: %w", it.ID, errs[i])
		}
		if err := db.addExtractedLocked(it.ID, it.Image, regions[i]); err != nil {
			return err
		}
	}
	return nil
}

// extractAll runs region extraction for every item on the resolved worker
// pool and returns the per-item region sets and errors in item order.
func (db *DB) extractAll(items []BatchItem, workers int) ([][]region.Region, []error) {
	extracted := make([][]region.Region, len(items))
	errs := make([]error, len(items))
	parallel.For(len(items), db.ingestWorkers(workers), func(i int) {
		extracted[i], errs[i] = db.ext.Extract(items[i].Image)
	})
	return extracted, errs
}

// addExtractedLocked is Add's insertion half, reused by AddBatch. Caller
// holds db.mu exclusively and publishes after the last insertion.
func (db *DB) addExtractedLocked(id string, im *imgio.Image, regions []region.Region) error {
	m := db.om.Load()
	var start time.Time
	if m != nil {
		start = statsClock()
	}
	if _, dup := db.byID.get(id); dup {
		return fmt.Errorf("walrus: image %q %w", id, ErrDuplicateID)
	}
	imgIdx := len(db.images)
	// Appends extend the catalog past any published length, which never
	// moves published elements; the id index copies only the chunk it
	// touches.
	db.images = append(db.images, imageRecord{ID: id, W: im.W, H: im.H, Regions: regions})
	db.byID.set(id, imgIdx)
	var rids []uint64
	for local, r := range regions {
		payload := int64(len(db.refs))
		ref := regionRef{Image: imgIdx, Local: local}
		if db.persist != nil {
			rec, err := r.MarshalBinary()
			if err != nil {
				return fmt.Errorf("walrus: encoding region of %q: %w", id, err)
			}
			rid, err := db.persist.heap.Insert(rec)
			if err != nil {
				return fmt.Errorf("walrus: storing region of %q: %w", id, err)
			}
			ref.RID = rid.Pack()
			rids = append(rids, ref.RID)
		}
		db.refs = append(db.refs, ref)
		if err := db.tree.Insert(signatureRect(db.opts.UseBBox, r), payload); err != nil {
			return fmt.Errorf("walrus: indexing region of %q: %w", id, err)
		}
	}
	db.liveRegions += len(regions)
	if db.persist != nil {
		if err := db.commitLocked(&walDelta{Op: deltaAdd, ID: id, W: im.W, H: im.H, RIDs: rids}); err != nil {
			return err
		}
	}
	if m != nil {
		d := statsSince(start)
		m.ingests.Inc()
		m.ingestRegions.Add(uint64(len(regions)))
		m.ingestSeconds.Observe(d.Seconds())
		m.images.Set(int64(db.byID.len()))
		m.regions.Add(int64(len(regions)))
		m.reg.RecordSpan("ingest", 0, start, d,
			obs.Attr{Key: "regions", Value: int64(len(regions))})
	}
	return nil
}

// Stats summarizes database state.
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
}

// Stats returns a snapshot of database statistics.
func (db *DB) Stats() Stats {
	core := db.cur.Load()
	return Stats{
		Images:       core.byID.len(),
		Regions:      core.liveRegions,
		IndexHeight:  core.height,
		SignatureDim: core.opts.Region.Dim(),
		DiskBacked:   core.diskBacked,
	}
}
