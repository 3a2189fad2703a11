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
//	matches, stats, _ := db.Query(q, walrus.DefaultQueryParams())
//
// Use Create/Open instead of New for a disk-backed database.
package walrus

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// Index selects the in-memory index backend: the R*-tree (default) or
	// the GiST rectangle tree. Disk-backed databases always use the paged
	// R*-tree.
	Index IndexBackend
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
	// prefilter and refine passes and its per-candidate scoring across
	// (the index probe is one serial descent for all regions): 0 uses
	// GOMAXPROCS, 1 reproduces the serial query exactly. Results and
	// stats are identical for every setting; only wall-clock time changes.
	Parallelism int
	// Prefilter plans the coarse rejection tier between the index probe
	// and the refine/score stages: candidate hits are screened with a
	// popcount Hamming test over precomputed binary signatures and the
	// WBIIS variance acceptance test before the exact distance check runs
	// on the survivors. At the default bounds both tests are
	// conservative, so results are identical with the tier on or off;
	// only the per-candidate work changes. Ignored by bounding-box
	// databases (Options.UseBBox), whose probe envelope is exact already.
	Prefilter bool
	// PrefilterHamming overrides the Hamming acceptance bound (0 derives
	// the exactness-preserving bound from Epsilon). Lower values reject
	// harder but may drop true matches.
	PrefilterHamming int
	// PrefilterBeta is the WBIIS variance tolerance β (0 means the WBIIS
	// default, 0.5). The β-test is backed by a conservative σ guard, so β
	// tuning affects speed, never correctness.
	PrefilterBeta float64
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
	// configured, or a path that bypasses caching, such as scene
	// queries), "hit", "miss", or "bypass" (NoCache was set). On a hit
	// every other field echoes the cached execution except Elapsed, which
	// is the lookup time.
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
// snapshots. Readers — Query, QueryScene, Len, Stats, IDs, RegionsOf,
// NumRegions, or an explicit DB.Snapshot — load the current published
// version with one atomic pointer read and (for queries) pin the
// matching index epoch; they never acquire db.mu and are never blocked
// by writers. Writers — Add, AddBatch, Remove, SetDurability — build
// the next version under the exclusive lock copy-on-write and publish
// it with an atomic swap; superseded index state is retained until the
// last snapshot pinning it is released (epoch-based reclamation).
// AddBatch keeps the expensive region extraction outside the lock and
// publishes the whole batch as one version. Results never depend on
// scheduling: the parallelism knobs change wall-clock time only.
type DB struct {
	mu   sync.RWMutex
	opts Options           // guarded by mu (SetDurability rewrites the policy at runtime)
	ext  *region.Extractor // immutable after prepare
	// tree is set at construction and the pointer never changes after the
	// DB is published; its contents are mutated only under mu, and
	// snapshot reads go through epoch-pinned views, not the live root.
	tree spatialIndex
	// defaultWorkers resolves AddBatch-style workers arguments of 0; it
	// is immutable after prepare.
	defaultWorkers int

	images []imageRecord  // guarded by mu
	byID   map[string]int // guarded by mu
	refs   []regionRef    // guarded by mu
	// bsigs holds the binary prefilter signature of each indexed region,
	// parallel to refs (guarded by mu). Append-only: Remove tombstones the
	// ref and the stale summary is simply never read again, so snapshots
	// share the backing array without copy-on-write.
	bsigs []binSig
	// liveRegions counts refs whose Local >= 0 (guarded by mu); kept
	// incrementally so publishing a version is O(1) in catalog size.
	liveRegions int
	// version is the last published catalog version (guarded by mu). For
	// the R*-tree backend it tracks the tree's publish epoch exactly.
	version uint64
	// The shared flags mark catalog containers whose backing storage is
	// reachable from a published snapshot (guarded by mu): set on every
	// publish, cleared when a writer clones before an in-place mutation.
	// Appends past the published length are safe without cloning.
	imagesShared, refsShared, byIDShared bool
	// persist is set before the DB is published and nilled only by Close;
	// its own state is mutated exclusively under mu.
	persist *persistState // nil for in-memory databases

	// cur is the currently published catalog version; readers load it
	// lock-free. Never nil once a constructor returns.
	cur atomic.Pointer[snapCore]

	// cache is the version-keyed query result cache; nil (the default
	// unless Options.CacheSize is set) means caching is off and the query
	// wrappers pay one atomic load. Swapped whole by SetCacheSize.
	cache atomic.Pointer[queryCache]

	// om points at the pre-resolved observability handles installed by
	// SetMetrics; nil (the default) means observability is off and the
	// instrumented paths reduce to one atomic load.
	om atomic.Pointer[dbMetrics]
}

// New creates an in-memory database.
func New(opts Options) (*DB, error) {
	db, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	capacity := opts.NodeCapacity
	if capacity == 0 {
		capacity = 16
	}
	switch opts.Index {
	case IndexRStar:
		ms, err := rstar.NewMemStore(opts.Region.Dim(), capacity)
		if err != nil {
			return nil, err
		}
		tree, err := rstar.New(rstar.NewVersioned(ms))
		if err != nil {
			return nil, err
		}
		db.tree = tree
	case IndexGiST:
		gi, err := newGistIndex(opts.Region.Dim(), capacity)
		if err != nil {
			return nil, err
		}
		db.tree = gi
	default:
		return nil, fmt.Errorf("walrus: unknown index backend %v", opts.Index)
	}
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
	db := &DB{opts: opts, ext: ext, byID: make(map[string]int), defaultWorkers: opts.Parallelism}
	if opts.CacheSize > 0 {
		db.cache.Store(newQueryCache(opts.CacheSize))
	}
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
	return len(db.cur.Load().byID)
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

// Query decomposes an RGB image into regions, probes the index with each
// region's epsilon envelope, scores every candidate image, and returns
// matches with similarity >= p.Tau sorted by decreasing similarity. The
// whole query — extraction included — runs against one snapshot of the
// database, unaffected by concurrent writers.
func (db *DB) Query(im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return db.QueryContext(context.Background(), im, p)
}

// QueryContext is Query with a deadline: the context is checked between
// pipeline stages and inside the parallel probe/score tasks, so an
// expired request stops consuming worker slots and returns the context's
// error. With a result cache configured, the lookup keys on the pinned
// snapshot version and a fingerprint of the query pixels — see
// Options.CacheSize.
func (db *DB) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer s.Release()
	c := db.cache.Load()
	if c == nil {
		return s.QueryContext(ctx, im, p)
	}
	return cachedQuery(ctx, c, db.cacheMetrics(), s.core.version, false, hashQueryImage(im), p,
		func() ([]Match, QueryStats, error) { return s.QueryContext(ctx, im, p) })
}

// QueryByID runs a query using the stored regions of an already-indexed
// image, skipping extraction; see Snapshot.QueryByID. Cacheable like
// QueryContext, keyed on the id instead of pixels.
func (db *DB) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer s.Release()
	c := db.cache.Load()
	if c == nil {
		return s.QueryByID(ctx, id, p)
	}
	return cachedQuery(ctx, c, db.cacheMetrics(), s.core.version, false, hashQueryID(id), p,
		func() ([]Match, QueryStats, error) { return s.QueryByID(ctx, id, p) })
}

// cacheMetrics returns the cache instrument set, nil when metrics are
// detached.
func (db *DB) cacheMetrics() *cacheMetrics {
	if m := db.om.Load(); m != nil {
		return &m.cache
	}
	return nil
}

// Remove deletes an image and its regions from the database. It reports
// whether the id was present. The image's slot in the internal catalog is
// retired, not compacted.
func (db *DB) Remove(id string) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	imgIdx, ok := db.byID[id]
	if !ok {
		return false, nil
	}
	defer db.publishLocked()
	// Tombstoning mutates published catalog entries in place, so work on
	// private copies of the containers a snapshot may share.
	refs := db.mutableRefsLocked()
	images := db.mutableImagesLocked()
	tombstoned := 0
	for payload, ref := range refs {
		if ref.Image != imgIdx || ref.Local < 0 {
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
	delete(db.mutableByIDLocked(), id)
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
		m.images.Set(int64(len(db.byID)))
		m.regions.Add(-int64(tombstoned))
	}
	return true, nil
}

// IDs returns the ids of all indexed images in insertion order.
func (db *DB) IDs() []string {
	core := db.cur.Load()
	out := make([]string, 0, len(core.byID))
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
	idx, ok := core.byID[id]
	if !ok {
		return nil, false
	}
	return core.images[idx].Regions, true
}

func euclid(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Sqrt(d)
}
