package walrus

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"walrus/internal/region"
	"walrus/internal/rstar"
)

// snapCore is one published version of the catalog. Every field is
// immutable once the core is stored into shard.cur: writers build the next
// version under the exclusive lock and publish it with an atomic pointer
// swap, so readers dereference one pointer and see an internally
// consistent catalog without ever touching sh.mu.
//
// The slices share backing arrays with the live catalog copy-on-write:
// appending past a published length never moves published elements, and
// any in-place mutation (Remove's tombstones) first clones the slice it
// touches (see the mutable*Locked helpers). The region columns are never
// written in place, so they are shared with no clone at all. byID is a chunked
// copy-on-write index: a write after a publish copies its chunk-pointer
// header and clones only the chunks it touches (see idIndexWriter).
type snapCore struct {
	version uint64
	removed uint64 // shard.removed at publication
	opts    Options
	ext     *region.Extractor
	images  []imageRecord
	refs    []regionRef
	cols    regionColumns
	byID    idIndex

	liveRegions int
	indexLen    int
	height      int
	diskBacked  bool
}

// shardSnapshot is one shard's pinned view: a published catalog version
// plus the epoch-pinned index view matching it. The query stages run
// over it. It holds no *shard: nothing reachable from it can acquire
// sh.mu or mutate the catalog, and the snapshotsafe analyzer enforces
// that its methods stay that way.
type shardSnapshot struct {
	core *snapCore
	view *rstar.TreeView

	// met is the metrics handle captured at acquisition; release must
	// decrement the same activeSnapshots gauge acquisition incremented
	// even if setMetrics swaps handles in between.
	met *shardMetrics
}

// snapshot pins the shard's current version.
func (sh *shard) snapshot() (shardSnapshot, error) {
	for {
		core := sh.cur.Load()
		if core == nil {
			return shardSnapshot{}, fmt.Errorf("walrus: database not initialized")
		}
		view, err := sh.tree.SnapshotView()
		if err != nil {
			return shardSnapshot{}, err
		}
		if view.Epoch() != core.version {
			// A writer published between loading the core and pinning the
			// tree. Retry with the fresher core; each retry observes a
			// newer version, so the loop cannot cycle.
			view.Release()
			continue
		}
		s := shardSnapshot{core: core, view: view}
		if m := sh.om.Load(); m != nil {
			s.met = m
			m.snapshotsTotal.Inc()
			m.activeSnapshots.Add(1)
		}
		return s, nil
	}
}

// release unpins the view, allowing the storage layer to reclaim
// superseded state. The owning Snapshot calls it exactly once.
func (s *shardSnapshot) release() {
	s.view.Release()
	if s.met != nil {
		s.met.activeSnapshots.Add(-1)
	}
}

// Snapshot is a stable, point-in-time view of the database: one pinned
// version of every shard, acquired together. The per-shard versions form
// the snapshot's version vector — every read through it observes exactly
// one consistent version of each shard, however many writers commit
// afterwards. All methods are read-only, lock-free and safe for
// concurrent use.
//
// A Snapshot pins resources (the R*-trees' superseded node pre-images)
// until released: call Release when done, ideally with defer. Using a
// snapshot after Release is invalid. One-shot readers (DB.QueryContext,
// DB.Len, ...) need no explicit snapshot.
type Snapshot struct {
	snaps []shardSnapshot

	// met is captured at acquisition so Release decrements the same
	// gauge acquisition incremented even if SetMetrics swaps handles; om
	// supplies the query metrics of queries run on the snapshot.
	met      *dbMetrics
	om       *atomic.Pointer[dbMetrics]
	released atomic.Bool
}

// Snapshot pins a read view of the current version of every shard. The
// caller must call Release on the result.
func (db *DB) Snapshot() (*Snapshot, error) {
	snaps := make([]shardSnapshot, len(db.shards))
	for i, sh := range db.shards {
		sn, err := sh.snapshot()
		if err != nil {
			for j := range snaps[:i] {
				snaps[j].release()
			}
			return nil, err
		}
		snaps[i] = sn
	}
	s := &Snapshot{snaps: snaps, om: &db.om}
	if m := db.om.Load(); m != nil && m.activeSnapshots != nil {
		s.met = m
		m.snapshotsTotal.Inc()
		m.activeSnapshots.Add(1)
	}
	return s, nil
}

// Release unpins every shard's view. Idempotent.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	for i := range s.snaps {
		s.snaps[i].release()
	}
	if s.met != nil {
		s.met.activeSnapshots.Add(-1)
	}
}

// cores returns the pinned version of every shard.
func (s *Snapshot) cores() coreSet {
	cs := make(coreSet, len(s.snaps))
	for i, sn := range s.snaps {
		cs[i] = sn.core
	}
	return cs
}

// VersionVector returns the per-shard catalog versions this snapshot
// observes, indexed by shard.
func (s *Snapshot) VersionVector() []uint64 { return s.cores().versions() }

// Shards returns the shard count.
func (s *Snapshot) Shards() int { return len(s.snaps) }

// Options returns the database configuration as of the snapshot.
func (s *Snapshot) Options() Options { return s.cores().options() }

// Len returns the number of indexed images in the snapshot.
func (s *Snapshot) Len() int { return s.cores().len() }

// NumRegions returns the number of live indexed regions in the snapshot.
func (s *Snapshot) NumRegions() int { return s.cores().numRegions() }

// IDs returns the ids of all indexed images in the snapshot, in the
// order DB.IDs documents.
func (s *Snapshot) IDs() []string { return s.cores().ids() }

// RegionsOf returns the regions extracted for an indexed image, read
// from its owning shard's pinned version; see DB.RegionsOf.
func (s *Snapshot) RegionsOf(id string) ([]region.Region, bool) {
	return s.snaps[shardOf(id, len(s.snaps))].core.regionsOf(id)
}

// Stats summarizes the snapshot's state. Every field — totals and
// per-shard rows alike — derives from the one pinned version vector, so
// the totals always equal the sums of the PerShard rows.
func (s *Snapshot) Stats() Stats { return s.cores().stats() }

// coreSet is one published version per shard, indexed by shard: the
// state every aggregate reader of a DB or a Snapshot reads.
type coreSet []*snapCore

func (cs coreSet) options() Options {
	o := cs[0].opts
	o.Shards = len(cs)
	return o
}

func (cs coreSet) versions() []uint64 {
	vv := make([]uint64, len(cs))
	for i, c := range cs {
		vv[i] = c.version
	}
	return vv
}

func (cs coreSet) len() int {
	n := 0
	for _, c := range cs {
		n += c.byID.len()
	}
	return n
}

func (cs coreSet) numRegions() int {
	n := 0
	for _, c := range cs {
		n += c.liveRegions
	}
	return n
}

// ids lists the live ids: in insertion order on one shard, sorted on
// more, where insertion order interleaves differently at different shard
// counts.
func (cs coreSet) ids() []string {
	out := make([]string, 0, cs.len())
	for _, c := range cs {
		for _, rec := range c.images {
			if rec.ID != "" {
				out = append(out, rec.ID)
			}
		}
	}
	if len(cs) > 1 {
		sort.Strings(out)
	}
	return out
}

func (cs coreSet) stats() Stats {
	if len(cs) == 1 {
		return cs[0].stats()
	}
	st := Stats{Shards: len(cs), PerShard: make([]Stats, len(cs))}
	for i, c := range cs {
		per := c.stats()
		st.PerShard[i] = per
		st.Images += per.Images
		st.Regions += per.Regions
		st.IndexHeight = max(st.IndexHeight, per.IndexHeight)
	}
	st.SignatureDim = st.PerShard[0].SignatureDim
	st.DiskBacked = st.PerShard[0].DiskBacked
	return st
}

// regionsOf returns the regions of an image in this version, aliasing
// the region columns.
func (c *snapCore) regionsOf(id string) ([]region.Region, bool) {
	idx, ok := c.byID.get(id)
	if !ok {
		return nil, false
	}
	rec := &c.images[idx]
	return c.cols.regions(rec.First, rec.First+rec.Count), true
}

// stats is the one-shard Stats row of this version.
func (c *snapCore) stats() Stats {
	return Stats{
		Images:       c.byID.len(),
		Regions:      c.liveRegions,
		IndexHeight:  c.height,
		SignatureDim: c.opts.Region.Dim(),
		DiskBacked:   c.diskBacked,
		Shards:       1,
	}
}

// publishLocked commits the catalog state under sh.mu as the next
// version: it advances the index epoch, builds an immutable
// snapCore sharing the catalog slices and id index, and swaps it into
// sh.cur. After the swap they belong to the published version too, so
// the shared flags (and the id index's own) force the next in-place
// mutation to copy.
// Caller holds sh.mu exclusively.
func (sh *shard) publishLocked() {
	m := sh.om.Load()
	var start time.Time
	if m != nil {
		start = statsClock()
	}
	// The tree's epoch counter and the catalog version advance in lockstep
	// (both only ever move here), so pinning the epoch that equals
	// core.version yields the matching index state.
	sh.version = sh.tree.PublishEpoch()
	core := &snapCore{
		version:     sh.version,
		removed:     sh.removed,
		opts:        sh.opts,
		ext:         sh.ext,
		images:      sh.images,
		refs:        sh.refs,
		cols:        sh.cols,
		byID:        sh.byID.publish(),
		liveRegions: sh.liveRegions,
		indexLen:    sh.tree.Len(),
		height:      sh.tree.Height(),
		diskBacked:  sh.persist != nil,
	}
	sh.imagesShared, sh.refsShared = true, true
	sh.cur.Store(core)
	if m != nil {
		m.snapshotVersion.Set(int64(core.version))
		m.publishes.Inc()
		m.publishSeconds.Observe(statsSince(start).Seconds())
	}
}

// mutableImagesLocked returns sh.images safe for in-place mutation,
// cloning it first if a published snapshot shares the backing array.
// Caller holds sh.mu exclusively.
func (sh *shard) mutableImagesLocked() []imageRecord {
	if sh.imagesShared {
		sh.images = append([]imageRecord(nil), sh.images...)
		sh.imagesShared = false
	}
	return sh.images
}

// mutableRefsLocked is mutableImagesLocked for sh.refs.
func (sh *shard) mutableRefsLocked() []regionRef {
	if sh.refsShared {
		sh.refs = append([]regionRef(nil), sh.refs...)
		sh.refsShared = false
	}
	return sh.refs
}
