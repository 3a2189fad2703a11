package walrus

import (
	"fmt"
	"sync/atomic"
	"time"

	"walrus/internal/region"
	"walrus/internal/rstar"
)

// snapCore is one published version of the catalog. Every field is
// immutable once the core is stored into DB.cur: writers build the next
// version under the exclusive lock and publish it with an atomic pointer
// swap, so readers dereference one pointer and see an internally
// consistent catalog without ever touching db.mu.
//
// The slices share backing arrays with the live catalog copy-on-write:
// appending past a published length never moves published elements, and
// any in-place mutation (Remove's tombstones) first clones the slice it
// touches (see the mutable*Locked helpers). byID is a chunked
// copy-on-write index: a write after a publish copies its chunk-pointer
// header and clones only the chunks it touches (see idIndexWriter).
type snapCore struct {
	version uint64
	opts    Options
	ext     *region.Extractor
	images  []imageRecord
	refs    []regionRef
	byID    idIndex

	liveRegions int
	indexLen    int
	height      int
	diskBacked  bool
}

// Snapshot is a stable, point-in-time view of the database: a published
// catalog version plus an epoch-pinned index view. All methods are
// read-only, lock-free and safe for concurrent use; they observe the
// state as of acquisition no matter how many writers commit afterwards.
//
// A Snapshot pins resources (the R*-tree's superseded node pre-images)
// until released: call Release when done, ideally with defer. Using a
// snapshot after Release is invalid. Snapshots are acquired with
// DB.Snapshot; one-shot readers (DB.QueryContext, DB.Len, ...) acquire and
// release internally.
//
// Snapshot deliberately holds no *DB: nothing reachable from it can
// acquire db.mu or mutate the catalog, and the snapshotsafe analyzer
// enforces that its methods stay that way.
type Snapshot struct {
	core *snapCore
	view *rstar.TreeView

	// met is the metrics handle captured at acquisition; Release must
	// decrement the same activeSnapshots gauge acquisition incremented
	// even if SetMetrics swaps handles in between.
	met      *dbMetrics
	om       *atomic.Pointer[dbMetrics]
	released atomic.Bool
}

// Snapshot returns a stable read view of the current database version.
// The caller must call Release on the result.
func (db *DB) Snapshot() (*Snapshot, error) {
	for {
		core := db.cur.Load()
		if core == nil {
			return nil, fmt.Errorf("walrus: database not initialized")
		}
		view, err := db.tree.SnapshotView()
		if err != nil {
			return nil, err
		}
		if view.Epoch() != core.version {
			// A writer published between loading the core and pinning the
			// tree. Retry with the fresher core; each retry observes a
			// newer version, so the loop cannot cycle.
			view.Release()
			continue
		}
		s := &Snapshot{core: core, view: view, om: &db.om}
		if m := db.om.Load(); m != nil {
			s.met = m
			m.snapshotsTotal.Inc()
			m.activeSnapshots.Add(1)
		}
		return s, nil
	}
}

// Release unpins the snapshot, allowing the storage layer to reclaim
// superseded state. Idempotent.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	s.view.Release()
	if s.met != nil {
		s.met.activeSnapshots.Add(-1)
	}
}

// Version is the catalog version this snapshot observes. Versions start
// at 1 and increase by one per committed write operation.
func (s *Snapshot) Version() uint64 { return s.core.version }

// Options returns the database configuration as of the snapshot.
func (s *Snapshot) Options() Options { return s.core.opts }

// Len returns the number of indexed images in the snapshot.
func (s *Snapshot) Len() int { return s.core.byID.len() }

// NumRegions returns the number of live indexed regions in the snapshot.
func (s *Snapshot) NumRegions() int { return s.core.liveRegions }

// IDs returns the ids of all indexed images in insertion order.
func (s *Snapshot) IDs() []string {
	out := make([]string, 0, s.core.byID.len())
	for _, rec := range s.core.images {
		if rec.ID != "" {
			out = append(out, rec.ID)
		}
	}
	return out
}

// RegionsOf returns the regions extracted for an indexed image.
func (s *Snapshot) RegionsOf(id string) ([]region.Region, bool) {
	idx, ok := s.core.byID.get(id)
	if !ok {
		return nil, false
	}
	return s.core.images[idx].Regions, true
}

// Stats summarizes the snapshot's state.
func (s *Snapshot) Stats() Stats {
	return Stats{
		Images:       s.core.byID.len(),
		Regions:      s.core.liveRegions,
		IndexHeight:  s.core.height,
		SignatureDim: s.core.opts.Region.Dim(),
		DiskBacked:   s.core.diskBacked,
	}
}

// publishLocked commits the catalog state under db.mu as the next
// version: it advances the index epoch, builds an immutable
// snapCore sharing the catalog slices and id index, and swaps it into
// db.cur. After the swap they belong to the published version too, so
// the shared flags (and the id index's own) force the next in-place
// mutation to copy.
// Caller holds db.mu exclusively.
func (db *DB) publishLocked() {
	m := db.om.Load()
	var start time.Time
	if m != nil {
		start = statsClock()
	}
	// The tree's epoch counter and the catalog version advance in lockstep
	// (both only ever move here), so pinning the epoch that equals
	// core.version yields the matching index state.
	db.version = db.tree.PublishEpoch()
	core := &snapCore{
		version:     db.version,
		opts:        db.opts,
		ext:         db.ext,
		images:      db.images,
		refs:        db.refs,
		byID:        db.byID.publish(),
		liveRegions: db.liveRegions,
		indexLen:    db.tree.Len(),
		height:      db.tree.Height(),
		diskBacked:  db.persist != nil,
	}
	db.imagesShared, db.refsShared = true, true
	db.cur.Store(core)
	if m != nil {
		m.snapshotVersion.Set(int64(core.version))
		m.publishes.Inc()
		m.publishSeconds.Observe(statsSince(start).Seconds())
	}
}

// mutableImagesLocked returns db.images safe for in-place mutation,
// cloning it first if a published snapshot shares the backing array.
// Caller holds db.mu exclusively.
func (db *DB) mutableImagesLocked() []imageRecord {
	if db.imagesShared {
		db.images = append([]imageRecord(nil), db.images...)
		db.imagesShared = false
	}
	return db.images
}

// mutableRefsLocked is mutableImagesLocked for db.refs.
func (db *DB) mutableRefsLocked() []regionRef {
	if db.refsShared {
		db.refs = append([]regionRef(nil), db.refs...)
		db.refsShared = false
	}
	return db.refs
}
