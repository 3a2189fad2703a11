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
// A DB is a set of shards: the catalog is partitioned by a hash of the
// image id into Options.Shards independent stores (one by default), and
// a query fans out across them and merges their rankings. Results are
// identical at every shard count. The worker pools — batch extraction,
// the refine pass and the shard fan-out — are sized by GOMAXPROCS, and
// results are identical at every setting of it too.
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
	"context"
	"errors"
	"sync/atomic"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/parallel"
	"walrus/internal/region"
)

// ErrDuplicateID reports an Add (or AddBatch item) whose id is already
// indexed. It is wrapped in the returned error, so callers classify with
// errors.Is — the HTTP front-end maps it to 409 Conflict.
var ErrDuplicateID = errors.New("already indexed")

// ErrUnknownID reports a QueryByID against an id the queried snapshot
// does not contain. The HTTP front-end maps it to 404 Not Found.
var ErrUnknownID = errors.New("unknown image id")

// ErrClosed reports an Add, AddBatch or Remove on a database that has
// been closed. The write changes nothing. The HTTP front-end maps it to
// 503 Service Unavailable.
var ErrClosed = errors.New("walrus: database is closed")

// Options configures a DB at creation time.
type Options struct {
	// Region configures region extraction (window sizes, signature size,
	// clustering epsilon, color space, bitmap resolution).
	Region region.Options
	// UseBBox indexes regions by the bounding box of their window
	// signatures instead of by centroid (the alternative signature of
	// Section 4 of the paper). Only such a database keeps the boxes in
	// memory (see DB.RegionsOf); the page file stores them either way.
	UseBBox bool
	// NodeCapacity is the index node capacity, M, of in-memory databases:
	// one value for leaves and inner nodes. 0 means a sensible default.
	// In-memory nodes use the disk page layout, with point leaves unless
	// UseBBox is set, but each is sized to its entries, so the capacity
	// is free. Disk-backed databases derive two capacities from the page
	// size instead: one for inner nodes and one for leaves, which hold
	// about twice as many entries when the index stores centroids (points)
	// rather than boxes.
	NodeCapacity int
	// Shards is the shard count: the catalog is partitioned by a hash of
	// the image id into this many independent stores, each with its own
	// catalog, index, WAL and snapshot chain, so writers on different
	// shards never share a lock. 0 means 1. New, Create, BuildFrom and
	// CreateFrom read it; Open takes the count from the directory's
	// layout instead. Rankings are identical at every shard count.
	Shards int
	// CacheSize is the capacity, in cached queries, of the result cache.
	// 0 (the default) disables caching. An entry is keyed on a
	// fingerprint of the query and the resolved parameters; it keeps the
	// query's extracted regions and its last answer, stamped with the
	// version vector it was computed at. A repeated query at the stamped
	// version is served without touching the index; after a committed
	// write it misses, probes and scores the new version from the kept
	// regions, and replaces the answer and the stamp. Entries age out by
	// LRU. SetCacheSize resizes at runtime.
	CacheSize int
	// Durability selects how aggressively a disk-backed database fsyncs
	// its write-ahead log (see DurabilityPolicy). Ignored by in-memory
	// databases. The zero value is DurabilityGroupCommit. Create records
	// it with the other options, once: Open restores it, whatever
	// SetDurability chose while the database was open.
	Durability DurabilityPolicy
	// FS, when non-nil, opens the files of a disk-backed database in
	// place of the real filesystem — the fault-injection seam used by
	// crash-recovery tests. Func fields are ignored by gob, so it is
	// never persisted with the options.
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
	// NoCache makes this query bypass the result cache:
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
	// image matching/scoring. ExtractTime is 0 when nothing was extracted:
	// a QueryByID, or a miss whose regions the result cache kept.
	ExtractTime, ProbeTime, ScoreTime time.Duration
	// Cache reports how the result cache handled the query: "" (no cache
	// configured, or a query on an explicit snapshot), "hit" (an answer
	// computed at the pinned version, served without running the
	// pipeline), "miss" (the pipeline ran, from the cached regions when
	// the cache held the query at an older version), or "bypass" (NoCache
	// was set). On a hit every other field echoes the cached execution
	// except Elapsed, which is the lookup time.
	Cache string `json:",omitempty"`
}

// AvgRegionsPerQueryRegion is Table 1's "Avg. No. of Regions Retrieved".
func (s QueryStats) AvgRegionsPerQueryRegion() float64 {
	if s.QueryRegions == 0 {
		return 0
	}
	return float64(s.RegionsRetrieved) / float64(s.QueryRegions)
}

// DB is a WALRUS image database: a set of hash-partitioned shards, one
// unless Options.Shards asks for more. Every image id belongs to one
// shard, chosen by a hash of the id, and each shard is a complete store
// with its own catalog, R*-tree, write-ahead log and snapshot chain, so
// writers touching different shards never share a lock and crash
// recovery replays the per-shard logs in parallel. Query results are
// identical at every shard count and every parallelism setting; only
// wall-clock time changes. All exported methods are safe for concurrent
// use.
//
// Concurrency contract: the database is read through immutable
// snapshots. Readers — QueryContext, QueryByID, QuerySceneContext, Len,
// Stats, IDs, RegionsOf, NumRegions, or an explicit DB.Snapshot — load
// each shard's published version with one atomic pointer read and (for
// queries) pin the matching index epoch; they never take a writer's lock
// and are never blocked by writers. Writers — Add, AddBatch, Remove,
// SetDurability — build a shard's next version under that shard's lock
// copy-on-write and publish it with an atomic swap; superseded index
// state is retained until the last snapshot pinning it is released
// (epoch-based reclamation).
type DB struct {
	// shards is immutable after construction; shardOf routes ids to
	// elements.
	shards []*shard

	// cache is the query result cache; nil (the default unless
	// Options.CacheSize is set) means caching is off and a query pays one
	// atomic load. Swapped whole by SetCacheSize.
	cache atomic.Pointer[queryCache]

	// om points at the pre-resolved observability handles installed by
	// SetMetrics; nil (the default) means observability is off.
	om atomic.Pointer[dbMetrics]
}

// Sharded is the database type's former name for a multi-shard layout.
//
// Deprecated: use DB, which is a set of shards at every shard count.
type Sharded = DB

// NewSharded is New.
//
// Deprecated: use New, which reads Options.Shards.
func NewSharded(opts Options) (*DB, error) { return New(opts) }

// New creates an in-memory database with opts.Shards shards (0 means 1).
func New(opts Options) (*DB, error) { return BuildFrom(opts, nil, 0) }

// buildShards resolves opts.Shards, partitions items across that many
// shards and builds shard i from its part with mk, closing the shards
// already built if one fails. The result cache Options.CacheSize asks
// for is installed on the database, never on a shard.
func buildShards(opts Options, items []BatchItem, mk func(i int, opts Options, items []BatchItem) (*shard, error)) (*DB, error) {
	n, err := resolveShardCount(opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = n
	parts := partitionItems(items, n)
	shards := make([]*shard, n)
	for i := range shards {
		sh, err := mk(i, opts, parts[i])
		if err != nil {
			return nil, errors.Join(err, closeShards(shards))
		}
		shards[i] = sh
	}
	return newDB(shards), nil
}

// newDB wraps constructed shards in a DB, installing the result cache
// their options ask for.
func newDB(shards []*shard) *DB {
	db := &DB{shards: shards}
	db.SetCacheSize(db.Options().CacheSize)
	return db
}

// owner returns the shard id belongs to.
func (db *DB) owner(id string) *shard { return db.shards[shardOf(id, len(db.shards))] }

// fanOut runs fn for every shard and returns the per-shard errors: on
// the caller's goroutine for a one-shard database, which so adds no
// worker-pool task to what its one store does, else across up to workers
// pool goroutines.
func (db *DB) fanOut(workers int, fn func(i int) error) []error {
	errs := make([]error, len(db.shards))
	if len(db.shards) == 1 {
		errs[0] = fn(0)
		return errs
	}
	parallel.For(len(db.shards), workers, func(i int) { errs[i] = fn(i) })
	return errs
}

// cores loads every shard's current published version.
func (db *DB) cores() coreSet {
	cs := make(coreSet, len(db.shards))
	for i, sh := range db.shards {
		cs[i] = sh.cur.Load()
	}
	return cs
}

// SetCacheSize resizes the query result cache at runtime:
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

// Options returns the database configuration; Shards is the shard count.
func (db *DB) Options() Options { return db.cores().options() }

// Shards returns the shard count.
func (db *DB) Shards() int { return len(db.shards) }

// VersionVector returns the current published catalog version of every
// shard, indexed by shard. Versions start at 1 (a freshly constructed
// shard) and advance by one per committed write operation on that shard
// (a shard's part of an AddBatch counts as one). Unlike
// Snapshot.VersionVector it pins nothing.
func (db *DB) VersionVector() []uint64 { return db.cores().versions() }

// Len returns the number of indexed images.
func (db *DB) Len() int { return db.cores().len() }

// NumRegions returns the number of live indexed regions.
func (db *DB) NumRegions() int { return db.cores().numRegions() }

// IDs returns the ids of all indexed images: in insertion order on a
// one-shard database, in lexicographic order on more shards, where
// insertion order interleaves differently at different shard counts.
func (db *DB) IDs() []string { return db.cores().ids() }

// RegionsOf returns the regions extracted for an indexed image. Their
// slices alias the database's region columns and must not be modified.
// The catalog keeps each region's signature, bitmap, window count and,
// when Options.Region.FineSignature is set, fine signature, bit for bit
// as extracted; Min and Max are nil unless Options.UseBBox is set, the
// one configuration that reads them.
func (db *DB) RegionsOf(id string) ([]region.Region, bool) {
	return db.owner(id).cur.Load().regionsOf(id)
}

// Stats returns database statistics, every field read from one
// published version per shard.
func (db *DB) Stats() Stats { return db.cores().stats() }

// Add extracts regions from an RGB image and indexes them under id on
// its owning shard, publishing the image as that shard's next catalog
// version. Only the owning shard's writer lock is held, so adds to
// different shards run in parallel. Adding an id twice is an error; use
// Remove first to replace an image.
func (db *DB) Add(id string, im *imgio.Image) error { return db.owner(id).add(id, im) }

// Remove deletes an image and its regions from its owning shard. It
// reports whether the id was present. The image's slot in the shard's
// catalog is retired, not compacted.
func (db *DB) Remove(id string) (bool, error) { return db.owner(id).remove(id) }

// QueryContext decomposes an RGB image into regions, probes the index
// with each region's epsilon envelope, scores every candidate image, and
// returns matches with similarity >= p.Tau sorted by decreasing
// similarity, ties by id. The whole query — extraction included — runs
// against one snapshot of the database, unaffected by concurrent
// writers: the image is decomposed once, each pinned shard probes and
// scores its own view, and the per-shard rankings merge into one that is
// byte-identical to the one-shard ranking. The context is checked
// between pipeline stages, inside the parallel refine and shard tasks
// and along the score loop, so an expired request stops consuming
// worker slots and returns the context's error. With a result cache
// configured, the lookup keys on a fingerprint of the query pixels and
// serves an answer stamped with the pinned version vector — see
// Options.CacheSize.
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

// query runs one query against a snapshot of the current version vector
// through the result cache, when one is configured.
func (db *DB) query(ctx context.Context, src querySource, p QueryParams) ([]Match, QueryStats, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer s.Release()
	return s.front().query(ctx, db.cache.Load(), src, p)
}

// Flush checkpoints every shard of a disk-backed database: all dirty
// pages reach the page file, which holds the whole catalog, and the
// write-ahead log is reset. It is a no-op for in-memory databases.
func (db *DB) Flush() error {
	return errors.Join(db.fanOut(len(db.shards), func(i int) error { return db.shards[i].flush() })...)
}

// Close flushes and releases every shard of a disk-backed database.
// In-memory databases need no Close. After Close, on either kind, every
// Add, AddBatch and Remove returns ErrClosed and changes nothing.
func (db *DB) Close() error {
	return errors.Join(db.fanOut(len(db.shards), func(i int) error { return db.shards[i].close() })...)
}

// SetDurability changes the durability policy of every shard of a
// disk-backed database for as long as it stays open: the policy is
// per process, and Open restores the one given to Create (see
// Options.Durability). The shards switch one at a time:
// a concurrent writer may commit under the old policy on one shard and
// the new on another, but each shard's commit path always sees one
// coherent policy.
func (db *DB) SetDurability(p DurabilityPolicy) {
	for _, sh := range db.shards {
		sh.setDurability(p)
	}
}

// Recovery returns the crash-recovery report of every shard from Open,
// indexed by shard. ok is false for in-memory databases; a report's
// Replayed is false when its shard had been closed cleanly.
func (db *DB) Recovery() ([]RecoveryStats, bool) {
	out := make([]RecoveryStats, len(db.shards))
	ok := false
	for i, sh := range db.shards {
		rs, shardOK := sh.recovery()
		out[i] = rs
		ok = ok || shardOK
	}
	return out, ok
}
