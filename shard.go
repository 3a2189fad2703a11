package walrus

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"walrus/internal/imgio"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/store"
)

// imageRecord is the per-image catalog entry. The image's regions are
// the payloads [First, First+Count) of the shard's region columns.
type imageRecord struct {
	ID           string
	W, H         int
	First, Count int
}

// regionRef locates one indexed region: which image, and which region
// within that image. The R*-tree payload is an index into shard.refs.
// For disk-backed shards RID is the packed heap-file record id of the
// region's serialized payload.
type regionRef struct {
	Image int
	Local int
	RID   uint64
}

// shard is one hash partition of a database, and the whole of a
// one-shard one: a complete WALRUS store with its own catalog, R*-tree
// versioned store, write-ahead log and snapshot chain. The DB routes
// every image id to one shard (shardOf), so writers on different shards
// never share a lock, and crash recovery replays the per-shard logs in
// parallel.
//
// Concurrency contract: a shard is read through immutable published
// versions. Readers load the current snapCore with one atomic pointer
// read and (for queries) pin the matching index epoch; they never
// acquire sh.mu and are never blocked by writers. Writers — add,
// addBatch, remove, setDurability — build the next version under the
// exclusive lock copy-on-write and publish it with an atomic swap;
// superseded index state is retained until the last snapshot pinning it
// is released (epoch-based reclamation). addBatch keeps the expensive
// region extraction outside the lock and publishes the whole batch as
// one version. Results never depend on scheduling: GOMAXPROCS, which
// sizes the worker pools, changes wall-clock time only.
type shard struct {
	mu   sync.RWMutex
	opts Options           // guarded by mu (setDurability rewrites the policy at runtime)
	ext  *region.Extractor // immutable after prepare
	// tree is set at construction and the pointer never changes after the
	// shard is published; its contents are mutated only under mu, and
	// snapshot reads go through epoch-pinned views, not the live root.
	tree *rstar.Tree

	images []imageRecord // guarded by mu
	byID   idIndexWriter // guarded by mu
	// refs is in non-decreasing Image order (appends follow image order,
	// and Open rebuilds it from image records that must tile it so), so
	// an image's refs form the run its record names. Guarded by mu.
	refs []regionRef
	// cols holds every payload's region data (guarded by mu). It is only
	// ever appended to, so a publish shares it with no copy and no flag.
	cols regionColumns
	// liveRegions counts refs whose Local >= 0 (guarded by mu); kept
	// incrementally so publishing a version is O(1) in catalog size.
	liveRegions int
	// version is the last published catalog version (guarded by mu); it
	// tracks the tree's publish epoch exactly.
	version uint64
	// removed counts the removes that reached the catalog, and the adds
	// that failed after entering an image into it (guarded by mu): the
	// writes after which the live refs appended since a version need not
	// be exactly the index entries added since it. The result cache
	// brings an answer forward only across versions that agree on it.
	removed uint64
	// The shared flags mark catalog slices whose backing storage is
	// reachable from a published snapshot (guarded by mu): set on every
	// publish, cleared when a writer clones before an in-place mutation.
	// Appends past the published length are safe without cloning. byID
	// tracks its own sharing, per chunk.
	imagesShared, refsShared bool
	// closed is set by close (guarded by mu); writers check it under the
	// lock and return ErrClosed before touching anything.
	closed bool
	// persist is set before the shard is published and nilled only by
	// close; its own state is mutated exclusively under mu.
	persist *persistState // nil for in-memory shards

	// cur is the currently published catalog version; readers load it
	// lock-free. Never nil once a constructor returns.
	cur atomic.Pointer[snapCore]

	// om points at the pre-resolved observability handles installed by
	// setMetrics; nil (the default) means observability is off and the
	// instrumented paths reduce to one atomic load.
	om atomic.Pointer[shardMetrics]
}

func prepare(opts Options) (*shard, error) {
	ext, err := region.NewExtractor(opts.Region)
	if err != nil {
		return nil, err
	}
	return &shard{opts: opts, ext: ext, cols: newRegionColumns(opts)}, nil
}

// add extracts regions from an RGB image and indexes them under id,
// publishing the image as the shard's next catalog version.
func (sh *shard) add(id string, im *imgio.Image) error {
	regions, err := sh.ext.Extract(im)
	if err != nil {
		return fmt.Errorf("walrus: extracting regions of %q: %w", id, err)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if err := sh.checkRecordsFit([]BatchItem{{ID: id}}, [][]region.Region{regions}); err != nil {
		return err
	}
	defer sh.publishLocked()
	return sh.addExtractedLocked(id, im, regions)
}

// remove deletes an image and its regions from the shard and reports
// whether the id was present. The image's slot in the catalog is
// retired, not compacted: it and its refs keep their places, zeroed but
// for the refs' Image, and on disk its record shrinks to a tombstone.
func (sh *shard) remove(id string) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return false, ErrClosed
	}
	imgIdx, ok := sh.byID.get(id)
	if !ok {
		return false, nil
	}
	defer sh.publishLocked()
	sh.removed++
	// Tombstoning mutates published catalog entries in place, so work on
	// private copies of the containers a snapshot may share.
	refs := sh.mutableRefsLocked()
	images := sh.mutableImagesLocked()
	tombstoned := 0
	lo, hi := images[imgIdx].First, images[imgIdx].First+images[imgIdx].Count
	for payload := lo; payload < hi; payload++ {
		ref := refs[payload]
		if ref.Local < 0 {
			continue
		}
		removed, err := sh.tree.Delete(sh.cols.key(payload), int64(payload))
		if err != nil {
			return false, err
		}
		if !removed {
			return false, fmt.Errorf("walrus: region of %q missing from index", id)
		}
		if sh.persist != nil {
			if err := sh.persist.heap.Delete(store.UnpackRID(ref.RID)); err != nil {
				return false, err
			}
		}
		refs[payload] = regionRef{Image: imgIdx, Local: -1} // tombstone
		tombstoned++
	}
	sh.byID.delete(id)
	images[imgIdx] = imageRecord{}
	sh.liveRegions -= tombstoned
	if p := sh.persist; p != nil {
		e := imageEntry{slot: uint64(imgIdx), first: uint64(lo), count: hi - lo}
		if err := p.heap.Shrink(p.recs[imgIdx], e.encode()); err != nil {
			return false, err
		}
		if err := sh.commitLocked(); err != nil {
			return true, err
		}
	}
	if m := sh.om.Load(); m != nil {
		m.removes.Inc()
		m.images.Set(int64(sh.byID.len()))
		m.regions.Add(-int64(tombstoned))
	}
	return true, nil
}

// shardOf maps an image id to its owning shard: FNV-1a over the id,
// reduced mod the shard count. The hash is stable across processes and
// platforms, so a database always routes an id to the same shard.
func shardOf(id string, n int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// resolveShardCount normalizes Options.Shards: 0 means 1.
func resolveShardCount(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("walrus: negative shard count %d", n)
	}
	if n == 0 {
		return 1, nil
	}
	return n, nil
}

// partitionItems splits a batch by owning shard, preserving item order
// within each shard.
func partitionItems(items []BatchItem, n int) [][]BatchItem {
	if n == 1 {
		return [][]BatchItem{items}
	}
	parts := make([][]BatchItem, n)
	for _, it := range items {
		k := shardOf(it.ID, n)
		parts[k] = append(parts[k], it)
	}
	return parts
}

// closeShards closes every already-constructed shard of a failed
// constructor.
func closeShards(shards []*shard) error {
	errs := make([]error, 0, len(shards))
	for _, sh := range shards {
		if sh != nil {
			errs = append(errs, sh.close())
		}
	}
	return errors.Join(errs...)
}

// euclid is the euclidean distance the matching rule of §5 compares
// with ε. The explicit float64 conversion rounds each square on its own,
// so no architecture fuses it into the sum (the Go spec allows fusing
// x*y + z otherwise): the index's ball test sums the same way.
func euclid(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += float64(diff * diff)
	}
	return math.Sqrt(d)
}
