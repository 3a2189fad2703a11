// Package walrus implements WALRUS (WAveLet-based Retrieval of
// User-specified Scenes), the region-based image similarity retrieval
// system of Natsev, Rastogi and Shim (SIGMOD 1999).
//
// A DB decomposes every inserted image into regions — clusters of
// variable-size sliding windows with similar Haar-wavelet signatures — and
// indexes each region's signature in an R*-tree. A query image is
// decomposed the same way; regions of database images whose signatures lie
// within an epsilon envelope of a query region form matching pairs, and
// each candidate image is scored by the fraction of the two images' area
// covered by matching regions (Definition 4.3 of the paper). The model is
// robust to translation and scaling of individual objects, not just of
// whole images.
//
// Basic usage:
//
//	db, _ := walrus.New(walrus.DefaultOptions())
//	_ = db.Add("img1", img1)                    // *imgio.Image, RGB
//	matches, stats, _ := db.QueryContext(ctx, q, walrus.DefaultQueryParams())
//
// Use Create/Open instead of New for a disk-backed database.
package walrus

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/store"
)

// ErrDuplicateID reports an Add (or AddBatch item) whose id is already
// indexed. It is wrapped in the returned error, so callers classify with
// errors.Is — the HTTP front-end maps it to 409 Conflict.
var ErrDuplicateID = errors.New("already indexed")

// ErrUnknownID reports a QueryByID against an id the queried snapshot
// does not contain. The HTTP front-end maps it to 404 Not Found.
var ErrUnknownID = errors.New("unknown image id")

// Options configures a DB at creation time.
type Options struct {
	// Region configures region extraction (window sizes, signature size,
	// clustering epsilon, color space, bitmap resolution).
	Region region.Options
	// UseBBox indexes regions by the bounding box of their window
	// signatures instead of by centroid (the alternative signature of
	// Section 4 of the paper).
	UseBBox bool
	// NodeCapacity is the index node capacity for in-memory databases
	// (disk-backed databases derive it from the page size). 0 means a
	// sensible default.
	NodeCapacity int
	// Shards is the shard count of a sharded database (NewSharded,
	// CreateSharded, BuildFromSharded): the catalog is partitioned by a
	// hash of the image id into this many independent sub-databases, each
	// with its own catalog, index, WAL and snapshot chain, so writers on
	// different shards never share a lock. 0 means 1. Ignored by the
	// single-database constructors (New, Create, BuildFrom).
	Shards int
	// Parallelism is the default worker count for ingest: it resolves the
	// workers argument of AddBatch, BuildFrom and CreateFrom when that
	// argument is 0, and (unless Region.Workers overrides it) bounds the
	// pool region extraction fans its wavelet work across. 0 uses
	// GOMAXPROCS; 1 forces the serial path. The indexed regions and all
	// query results are identical for every setting.
	Parallelism int
	// CacheSize is the capacity, in cached queries, of the version-keyed
	// result cache serving repeated queries without touching the index.
	// 0 (the default) disables caching. Entries are keyed on the pinned
	// snapshot version (or the fleet's version vector), a fingerprint of
	// the query, and the resolved parameters, so any committed write
	// invalidates by construction; stale entries age out by LRU.
	// SetCacheSize resizes at runtime.
	CacheSize int
	// Durability selects how aggressively a disk-backed database fsyncs
	// its write-ahead log (see DurabilityPolicy). Ignored by in-memory
	// databases. The zero value is DurabilityGroupCommit.
	Durability DurabilityPolicy
	// FS, when non-nil, opens the files of a disk-backed database in
	// place of the real filesystem — the fault-injection seam used by
	// crash-recovery tests. Func fields are ignored by gob, so it is
	// never persisted in the catalog.
	FS FileOpener
}

// DefaultOptions mirrors the parameter choices of the paper's retrieval
// experiments (Section 6.4).
func DefaultOptions() Options {
	return Options{Region: region.DefaultOptions(), NodeCapacity: 16}
}

// QueryParams configures one query.
type QueryParams struct {
	// Epsilon is ε, the maximum signature distance between matching
	// regions (Definition 4.1). The paper's experiments used 0.085.
	Epsilon float64
	// Tau is τ, the minimum similarity for an image to be reported
	// (Definition 4.3). 0 reports every image with any matching region.
	Tau float64
	// Matcher selects the image-matching algorithm (quick, greedy, exact).
	Matcher match.Algorithm
	// Denominator selects the similarity normalization.
	Denominator match.Denominator
	// Limit caps the number of returned matches (0 = unlimited).
	Limit int
	// Refine enables the refined matching phase of Section 5.5: candidate
	// region pairs found by the index probe are re-verified against the
	// finer signatures stored when Options.Region.FineSignature is set,
	// trading response time for better-qualified matches. Ignored when the
	// database stores no fine signatures.
	Refine bool
	// RefineEpsilon is the distance bound for the fine-signature check;
	// 0 means Epsilon scaled by sqrt(fineDim/coarseDim), which keeps the
	// per-dimension tolerance of the coarse check.
	RefineEpsilon float64
	// Parallelism bounds the worker pool the query fans its per-region
	// refine pass across and, on a sharded database, the per-shard
	// fan-out: 0 uses GOMAXPROCS, 1 reproduces the serial query exactly.
	// The index probe is one serial descent for all regions, and scoring
	// runs on the caller's goroutine. Results and stats are identical for
	// every setting; only wall-clock time changes.
	Parallelism int
	// NoCache makes this query bypass the version-keyed result cache:
	// it neither reads nor populates it. Meaningful only on a database
	// with a cache configured (Options.CacheSize / SetCacheSize).
	NoCache bool
}

// DefaultQueryParams returns the paper's query parameters with no
// similarity threshold and no limit.
func DefaultQueryParams() QueryParams {
	return QueryParams{Epsilon: 0.085, Matcher: match.Quick}
}

// Match is one query result.
type Match struct {
	// ID is the image id passed to Add.
	ID string
	// Similarity is the matched-area fraction in [0,1].
	Similarity float64
	// Pairs is the similar region pair set (query region index, target
	// region index); nil for the quick matcher.
	Pairs []match.Pair
	// MatchingRegions is the number of matching region pairs found by the
	// index probe for this image.
	MatchingRegions int
}

// QueryStats reports the work a query performed — the quantities Table 1
// of the paper measures.
type QueryStats struct {
	// QueryRegions is the number of regions extracted from the query.
	QueryRegions int
	// RegionsRetrieved is the total number of matching database regions
	// over all query regions.
	RegionsRetrieved int
	// CandidateImages is the number of distinct images with at least one
	// matching region.
	CandidateImages int
	// Elapsed is the wall-clock query time, including region extraction.
	Elapsed time.Duration
	// ExtractTime, ProbeTime and ScoreTime break Elapsed into its phases:
	// query region extraction, index probes (plus distance filtering), and
	// image matching/scoring.
	ExtractTime, ProbeTime, ScoreTime time.Duration
	// Cache reports how the result cache handled the query: "" (no cache
	// configured, or a query on an explicit snapshot), "hit", "miss", or
	// "bypass" (NoCache was set). On a hit every other field echoes the
	// cached execution except Elapsed, which is the lookup time.
	Cache string `json:",omitempty"`
}

// AvgRegionsPerQueryRegion is Table 1's "Avg. No. of Regions Retrieved".
func (s QueryStats) AvgRegionsPerQueryRegion() float64 {
	if s.QueryRegions == 0 {
		return 0
	}
	return float64(s.RegionsRetrieved) / float64(s.QueryRegions)
}

// imageRecord is the per-image catalog entry.
type imageRecord struct {
	ID      string
	W, H    int
	Regions []region.Region
}

// regionRef locates one indexed region: which image, and which region
// within that image. The R*-tree payload is an index into DB.refs. For
// disk-backed databases RID is the packed heap-file record id of the
// region's serialized payload.
type regionRef struct {
	Image int
	Local int
	RID   uint64
}

// DB is a WALRUS image database. All exported methods are safe for
// concurrent use.
//
// Concurrency contract: the database is read through immutable
// snapshots. Readers — QueryContext, QueryByID, QuerySceneContext, Len,
// Stats, IDs, RegionsOf, NumRegions, or an explicit DB.Snapshot — load
// the current published version with one atomic pointer read and (for
// queries) pin the matching index epoch; they never acquire db.mu and
// are never blocked by writers. Writers — Add, AddBatch, Remove,
// SetDurability — build the next version under the exclusive lock
// copy-on-write and publish it with an atomic swap; superseded index
// state is retained until the last snapshot pinning it is released
// (epoch-based reclamation). AddBatch keeps the expensive region
// extraction outside the lock and publishes the whole batch as one
// version. Results never depend on scheduling: the parallelism knobs
// change wall-clock time only.
type DB struct {
	mu   sync.RWMutex
	opts Options           // guarded by mu (SetDurability rewrites the policy at runtime)
	ext  *region.Extractor // immutable after prepare
	// tree is set at construction and the pointer never changes after the
	// DB is published; its contents are mutated only under mu, and
	// snapshot reads go through epoch-pinned views, not the live root.
	tree *rstar.Tree
	// defaultWorkers resolves AddBatch-style workers arguments of 0; it
	// is immutable after prepare.
	defaultWorkers int

	images []imageRecord // guarded by mu
	byID   idIndexWriter // guarded by mu
	// refs is in non-decreasing Image order (appends follow image order,
	// and Open rejects a catalog that is not), so an image's refs form
	// one run found by binary search; see refRun. Guarded by mu.
	refs []regionRef
	// liveRegions counts refs whose Local >= 0 (guarded by mu); kept
	// incrementally so publishing a version is O(1) in catalog size.
	liveRegions int
	// version is the last published catalog version (guarded by mu); it
	// tracks the tree's publish epoch exactly.
	version uint64
	// The shared flags mark catalog slices whose backing storage is
	// reachable from a published snapshot (guarded by mu): set on every
	// publish, cleared when a writer clones before an in-place mutation.
	// Appends past the published length are safe without cloning. byID
	// tracks its own sharing, per chunk.
	imagesShared, refsShared bool
	// persist is set before the DB is published and nilled only by Close;
	// its own state is mutated exclusively under mu.
	persist *persistState // nil for in-memory databases

	// cur is the currently published catalog version; readers load it
	// lock-free. Never nil once a constructor returns.
	cur atomic.Pointer[snapCore]

	// cache is the version-keyed query result cache; nil (the default
	// unless Options.CacheSize is set) means caching is off and a query
	// pays one atomic load. Swapped whole by SetCacheSize.
	cache atomic.Pointer[queryCache]

	// om points at the pre-resolved observability handles installed by
	// SetMetrics; nil (the default) means observability is off and the
	// instrumented paths reduce to one atomic load.
	om atomic.Pointer[dbMetrics]
}

// New creates an in-memory database.
func New(opts Options) (*DB, error) { return withCache(newDB(opts)) }

// newDB is New without the result cache: the constructor of a shard.
func newDB(opts Options) (*DB, error) {
	db, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	capacity := opts.NodeCapacity
	if capacity == 0 {
		capacity = 16
	}
	ms, err := rstar.NewMemStore(opts.Region.Dim(), capacity)
	if err != nil {
		return nil, err
	}
	tree, err := rstar.New(rstar.NewVersioned(ms))
	if err != nil {
		return nil, err
	}
	db.tree = tree
	db.publishLocked()
	return db, nil
}

func prepare(opts Options) (*DB, error) {
	ropts := opts.Region
	if ropts.Workers == 0 && opts.Parallelism > 0 {
		// Region.Workers inherits the database-wide parallelism default.
		ropts.Workers = opts.Parallelism
	}
	ext, err := region.NewExtractor(ropts)
	if err != nil {
		return nil, err
	}
	return &DB{opts: opts, ext: ext, defaultWorkers: opts.Parallelism}, nil
}

// withCache finishes a standalone database's constructor by installing
// the result cache Options.CacheSize asks for. The shards of a Sharded
// database are built without it: the fleet holds the only cache, and a
// shard's catalog still records CacheSize for OpenSharded to restore it.
func withCache(db *DB, err error) (*DB, error) {
	if err != nil {
		return nil, err
	}
	db.SetCacheSize(db.opts.CacheSize)
	return db, nil
}

// SetCacheSize resizes the version-keyed query result cache at runtime:
// n > 0 installs a fresh, empty cache with that capacity; n <= 0
// disables caching. Safe to call while queries run — in-flight queries
// finish against the cache they loaded.
func (db *DB) SetCacheSize(n int) {
	if n <= 0 {
		db.cache.Store(nil)
		return
	}
	db.cache.Store(newQueryCache(n))
}

// ingestWorkers resolves a caller-supplied worker count against the
// database's Parallelism default: workers > 0 wins, otherwise
// Options.Parallelism applies (itself defaulting to GOMAXPROCS).
func (db *DB) ingestWorkers(workers int) int {
	if workers <= 0 {
		workers = db.defaultWorkers
	}
	return parallel.Workers(workers)
}

// Options returns the database configuration.
func (db *DB) Options() Options {
	return db.cur.Load().opts
}

// Version returns the current published catalog version. Versions start
// at 1 (a freshly constructed database) and advance by one per committed
// write operation (an AddBatch counts as one).
func (db *DB) Version() uint64 {
	return db.cur.Load().version
}

// Len returns the number of indexed images.
func (db *DB) Len() int {
	return db.cur.Load().byID.len()
}

// NumRegions returns the number of live indexed regions.
func (db *DB) NumRegions() int {
	return db.cur.Load().liveRegions
}

// Add extracts regions from an RGB image and indexes them under id,
// publishing the image as the next catalog version. Adding an id twice
// is an error; use Remove first to replace an image.
func (db *DB) Add(id string, im *imgio.Image) error {
	regions, err := db.ext.Extract(im)
	if err != nil {
		return fmt.Errorf("walrus: extracting regions of %q: %w", id, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publishLocked()
	return db.addExtractedLocked(id, im, regions)
}

// QueryContext decomposes an RGB image into regions, probes the index
// with each region's epsilon envelope, scores every candidate image, and
// returns matches with similarity >= p.Tau sorted by decreasing
// similarity. The whole query — extraction included — runs against one
// snapshot of the database, unaffected by concurrent writers. The
// context is checked between pipeline stages, inside the parallel refine
// tasks and along the score loop, so an expired request stops consuming
// worker slots and returns the context's error. With a result cache
// configured, the lookup keys on the pinned snapshot version and a
// fingerprint of the query pixels — see Options.CacheSize.
func (db *DB) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return db.query(ctx, querySource{im: im}, p)
}

// QueryByID runs a query using the stored regions of an already-indexed
// image, skipping extraction; see Snapshot.QueryByID. Cacheable like
// QueryContext, keyed on the id instead of pixels.
func (db *DB) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	return db.query(ctx, querySource{id: id}, p)
}

// QuerySceneContext runs a similarity query using only a user-specified
// rectangular scene of the query image — the "user-specified scenes" of
// the system's name. The rectangle is cropped out, regions are extracted
// from it alone, and candidate images are scored on how much of the
// *scene* (not the whole query image) their matching regions cover, using
// the query-only similarity variant of Section 4. This finds images that
// contain the selected object anywhere, at any size, regardless of what
// else the query image shows. It is exactly a QueryContext of the crop
// with Denominator match.QueryOnly, and caches as one.
//
// The rectangle must be at least Options.Region.MinWindow pixels in each
// dimension.
func (db *DB) QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	return db.query(ctx, querySource{im: im, scene: true, x: x, y: y, w: w, h: h}, p)
}

// query runs one query against a snapshot of the current version through
// the result cache, when one is configured.
func (db *DB) query(ctx context.Context, src querySource, p QueryParams) ([]Match, QueryStats, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer s.Release()
	return s.front().query(ctx, db.cache.Load(), src, p)
}

// Remove deletes an image and its regions from the database. It reports
// whether the id was present. The image's slot in the internal catalog is
// retired, not compacted.
func (db *DB) Remove(id string) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	imgIdx, ok := db.byID.get(id)
	if !ok {
		return false, nil
	}
	defer db.publishLocked()
	// Tombstoning mutates published catalog entries in place, so work on
	// private copies of the containers a snapshot may share.
	refs := db.mutableRefsLocked()
	images := db.mutableImagesLocked()
	tombstoned := 0
	lo, hi := refRun(refs, imgIdx)
	for payload := lo; payload < hi; payload++ {
		ref := refs[payload]
		if ref.Local < 0 {
			continue
		}
		r := images[imgIdx].Regions[ref.Local]
		removed, err := db.tree.Delete(signatureRect(db.opts.UseBBox, r), int64(payload))
		if err != nil {
			return false, err
		}
		if !removed {
			return false, fmt.Errorf("walrus: region of %q missing from index", id)
		}
		if db.persist != nil {
			if err := db.persist.heap.Delete(store.UnpackRID(refs[payload].RID)); err != nil {
				return false, err
			}
		}
		refs[payload].Local = -1 // tombstone
		tombstoned++
	}
	db.byID.delete(id)
	images[imgIdx].Regions = nil
	images[imgIdx].ID = ""
	db.liveRegions -= tombstoned
	if db.persist != nil {
		if err := db.commitLocked(&walDelta{Op: deltaRemove, ID: id}); err != nil {
			return true, err
		}
	}
	if m := db.om.Load(); m != nil {
		m.removes.Inc()
		m.images.Set(int64(db.byID.len()))
		m.regions.Add(-int64(tombstoned))
	}
	return true, nil
}

// IDs returns the ids of all indexed images in insertion order.
func (db *DB) IDs() []string {
	core := db.cur.Load()
	out := make([]string, 0, core.byID.len())
	for _, rec := range core.images {
		if rec.ID != "" {
			out = append(out, rec.ID)
		}
	}
	return out
}

// RegionsOf returns the regions extracted for an indexed image.
func (db *DB) RegionsOf(id string) ([]region.Region, bool) {
	core := db.cur.Load()
	idx, ok := core.byID.get(id)
	if !ok {
		return nil, false
	}
	return core.images[idx].Regions, true
}

// refRun returns the half-open range [lo, hi) of refs belonging to image
// imgIdx, by binary search over refs' non-decreasing Image order.
func refRun(refs []regionRef, imgIdx int) (lo, hi int) {
	lo = sort.Search(len(refs), func(i int) bool { return refs[i].Image >= imgIdx })
	hi = lo + sort.Search(len(refs)-lo, func(i int) bool { return refs[lo+i].Image > imgIdx })
	return lo, hi
}

// refsInImageOrder reports whether refs is non-decreasing in Image, the
// order refRun relies on.
func refsInImageOrder(refs []regionRef) bool {
	return slices.IsSortedFunc(refs, func(a, b regionRef) int { return cmp.Compare(a.Image, b.Image) })
}

func euclid(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Sqrt(d)
}
