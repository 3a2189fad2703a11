package walrus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
)

// shardManifestName is the file marking a directory as a sharded
// database and recording its shard count.
const shardManifestName = "shards.json"

type shardManifest struct {
	Shards int `json:"shards"`
}

// shardDirName is the subdirectory holding shard i's files.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

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
	parts := make([][]BatchItem, n)
	for _, it := range items {
		k := shardOf(it.ID, n)
		parts[k] = append(parts[k], it)
	}
	return parts
}

// Sharded is a WALRUS database partitioned into independent shards by a
// hash of the image id. Each shard is a complete DB — its own catalog,
// R*-tree versioned store, write-ahead log and snapshot chain — so
// writers touching different shards never share a lock, and crash
// recovery replays the per-shard logs in parallel.
//
// Reads go through cross-shard snapshots: a ShardedSnapshot pins one
// epoch-matched snapshot per shard (a version vector), queries fan out
// across the pinned shards and merge their rankings, and aggregate
// reads (Stats, IDs, Len) sum over the same pinned vector instead of
// racing each shard's live state. Query results are identical for every
// shard count and every parallelism setting; only wall-clock time
// changes. All exported methods are safe for concurrent use.
type Sharded struct {
	mu   sync.Mutex
	opts Options // guarded by mu (SetDurability rewrites the policy at runtime)

	// shards is immutable after construction; shardOf routes ids to
	// elements.
	shards []*DB

	// cache is the fleet-level result cache, keyed on the pinned version
	// vector; nil means caching is off. It is the only cache a sharded
	// database holds: the shards are built without one, since fleet
	// queries never run through a shard's own query path.
	cache atomic.Pointer[queryCache]

	// om points at the fleet-level observability handles installed by
	// SetMetrics; nil (the default) means observability is off.
	om atomic.Pointer[shardedMetrics]
}

// newShardedFrom wraps constructed shards in a Sharded, installing the
// fleet-level result cache when Options.CacheSize asks for one.
func newShardedFrom(opts Options, shards []*DB) *Sharded {
	s := &Sharded{opts: opts, shards: shards}
	if opts.CacheSize > 0 {
		s.cache.Store(newQueryCache(opts.CacheSize))
	}
	return s
}

// NewSharded creates an in-memory sharded database with opts.Shards
// shards (0 means 1).
func NewSharded(opts Options) (*Sharded, error) {
	n, err := resolveShardCount(opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = n
	shards := make([]*DB, n)
	for i := range shards {
		db, err := newDB(opts)
		if err != nil {
			return nil, err
		}
		shards[i] = db
	}
	return newShardedFrom(opts, shards), nil
}

// CreateSharded creates a disk-backed sharded database: dir gains a
// shards.json manifest and one shard-NNNN subdirectory per shard, each
// a self-contained database directory with its own index, WAL and
// catalog.
func CreateSharded(dir string, opts Options) (*Sharded, error) {
	n, err := resolveShardCount(opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = n
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("walrus: creating %s: %w", dir, err)
	}
	if err := writeShardManifest(dir, n); err != nil {
		return nil, err
	}
	shards := make([]*DB, n)
	for i := range shards {
		db, err := create(filepath.Join(dir, shardDirName(i)), opts)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("walrus: creating shard %d: %w", i, err), closeShards(shards))
		}
		shards[i] = db
	}
	return newShardedFrom(opts, shards), nil
}

// OpenSharded reopens a sharded database created by CreateSharded. The
// shards are independent, so their opens — including any WAL replay
// after a crash — run in parallel: recovery time scales with the
// largest shard's log, not the sum.
func OpenSharded(dir string) (*Sharded, error) { return OpenShardedFS(dir, nil) }

// OpenShardedFS is OpenSharded with an explicit filesystem seam; nil fs
// uses the real filesystem. Crash-recovery tests pass a fault-injecting
// opener.
func OpenShardedFS(dir string, fs FileOpener) (*Sharded, error) {
	n, err := readShardManifest(dir)
	if err != nil {
		return nil, err
	}
	shards := make([]*DB, n)
	err = parallel.ForErr(n, n, func(i int) error {
		db, err := openFS(filepath.Join(dir, shardDirName(i)), fs)
		if err != nil {
			return fmt.Errorf("walrus: opening shard %d: %w", i, err)
		}
		shards[i] = db
		return nil
	})
	if err != nil {
		return nil, errors.Join(err, closeShards(shards))
	}
	opts := shards[0].Options()
	opts.Shards = n
	opts.FS = fs
	return newShardedFrom(opts, shards), nil
}

// BuildFromSharded is BuildFrom for a sharded database: the collection
// is partitioned by id hash and each shard's R*-tree is bulk-loaded by
// variance-split packing. The result is identical to NewSharded followed
// by AddBatch up to index layout, and so are rankings under every
// matcher.
func BuildFromSharded(opts Options, items []BatchItem, workers int) (*Sharded, error) {
	n, err := resolveShardCount(opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = n
	parts := partitionItems(items, n)
	shards := make([]*DB, n)
	for i := range shards {
		db, err := buildFrom(opts, parts[i], workers)
		if err != nil {
			return nil, err
		}
		shards[i] = db
	}
	return newShardedFrom(opts, shards), nil
}

// CreateFromSharded is CreateFrom for a sharded database: one unlogged
// bulk load per shard directory.
func CreateFromSharded(dir string, opts Options, items []BatchItem, workers int) (*Sharded, error) {
	n, err := resolveShardCount(opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = n
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("walrus: creating %s: %w", dir, err)
	}
	if err := writeShardManifest(dir, n); err != nil {
		return nil, err
	}
	parts := partitionItems(items, n)
	shards := make([]*DB, n)
	for i := range shards {
		db, err := createFrom(filepath.Join(dir, shardDirName(i)), opts, parts[i], workers)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("walrus: creating shard %d: %w", i, err), closeShards(shards))
		}
		shards[i] = db
	}
	return newShardedFrom(opts, shards), nil
}

// closeShards closes every already-constructed shard of a failed
// constructor.
func closeShards(shards []*DB) error {
	errs := make([]error, 0, len(shards))
	for _, sh := range shards {
		if sh != nil {
			errs = append(errs, sh.Close())
		}
	}
	return errors.Join(errs...)
}

func writeShardManifest(dir string, n int) error {
	data, err := json.MarshalIndent(shardManifest{Shards: n}, "", "  ")
	if err != nil {
		return fmt.Errorf("walrus: encoding shard manifest: %w", err)
	}
	tmp := filepath.Join(dir, shardManifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("walrus: writing shard manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, shardManifestName)); err != nil {
		return fmt.Errorf("walrus: writing shard manifest: %w", err)
	}
	syncDir(dir)
	return nil
}

func readShardManifest(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardManifestName))
	if err != nil {
		return 0, fmt.Errorf("walrus: reading shard manifest (is %s a sharded database?): %w", dir, err)
	}
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("walrus: decoding shard manifest: %w", err)
	}
	if m.Shards < 1 {
		return 0, fmt.Errorf("walrus: shard manifest declares %d shards", m.Shards)
	}
	return m.Shards, nil
}

// IsSharded reports whether dir holds a sharded database (a shards.json
// manifest); CLIs use it to auto-detect which Open variant applies.
func IsSharded(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, shardManifestName))
	return err == nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Options returns the database configuration.
func (s *Sharded) Options() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// fanWorkers resolves a worker knob for cross-shard fan-out against the
// Parallelism option.
func (s *Sharded) fanWorkers(workers int) int {
	if workers <= 0 {
		s.mu.Lock()
		workers = s.opts.Parallelism
		s.mu.Unlock()
	}
	return parallel.Workers(workers)
}

// Add routes the image to its owning shard and indexes it there; only
// that shard's writer lock is held, so adds to different shards run in
// parallel.
func (s *Sharded) Add(id string, im *imgio.Image) error {
	return s.shards[shardOf(id, len(s.shards))].Add(id, im)
}

// Remove deletes an image from its owning shard. It reports whether the
// id was present.
func (s *Sharded) Remove(id string) (bool, error) {
	return s.shards[shardOf(id, len(s.shards))].Remove(id)
}

// AddBatch partitions the batch by owning shard and runs one AddBatch
// per shard across the worker pool. Each shard publishes its sub-batch
// as one catalog version; there is no cross-shard atomicity — a reader
// can observe shard A's sub-batch before shard B commits — but within
// every shard the batch is all-or-nothing exactly as DB.AddBatch
// guarantees. All shards attempt their sub-batch even when one fails;
// the lowest-numbered shard's error is returned.
func (s *Sharded) AddBatch(items []BatchItem, workers int) error {
	parts := partitionItems(items, len(s.shards))
	return parallel.ForErr(len(s.shards), s.fanWorkers(workers), func(i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		return s.shards[i].AddBatch(parts[i], workers)
	})
}

// ShardedSnapshot is a stable, point-in-time view of a sharded
// database: one epoch-matched Snapshot per shard, acquired together. The
// per-shard versions form the snapshot's version vector — every read
// through this snapshot observes exactly one consistent version of each
// shard, however many writers commit concurrently. All methods are
// read-only, lock-free and safe for concurrent use. Call Release when
// done.
type ShardedSnapshot struct {
	snaps []*Snapshot

	// met is captured at acquisition so Release decrements the same
	// gauge acquisition incremented even if SetMetrics swaps handles.
	met      *shardedMetrics
	om       *atomic.Pointer[shardedMetrics]
	released atomic.Bool
}

// Snapshot pins a cross-shard read view: one snapshot per shard. The
// caller must call Release on the result.
func (s *Sharded) Snapshot() (*ShardedSnapshot, error) {
	snaps := make([]*Snapshot, len(s.shards))
	for i, sh := range s.shards {
		sn, err := sh.Snapshot()
		if err != nil {
			for _, acquired := range snaps[:i] {
				acquired.Release()
			}
			return nil, err
		}
		snaps[i] = sn
	}
	ss := &ShardedSnapshot{snaps: snaps, om: &s.om}
	if m := s.om.Load(); m != nil {
		ss.met = m
		m.snapshotsTotal.Inc()
		m.activeSnapshots.Add(1)
	}
	return ss, nil
}

// Release unpins every per-shard snapshot. Idempotent.
func (ss *ShardedSnapshot) Release() {
	if !ss.released.CompareAndSwap(false, true) {
		return
	}
	for _, sn := range ss.snaps {
		sn.Release()
	}
	if ss.met != nil {
		ss.met.activeSnapshots.Add(-1)
	}
}

// VersionVector returns the per-shard catalog versions this snapshot
// observes, indexed by shard.
func (ss *ShardedSnapshot) VersionVector() []uint64 {
	vv := make([]uint64, len(ss.snaps))
	for i, sn := range ss.snaps {
		vv[i] = sn.Version()
	}
	return vv
}

// Shards returns the shard count.
func (ss *ShardedSnapshot) Shards() int { return len(ss.snaps) }

// Options returns the database configuration as of the snapshot.
func (ss *ShardedSnapshot) Options() Options {
	o := ss.snaps[0].Options()
	o.Shards = len(ss.snaps)
	return o
}

// Len returns the number of indexed images across all shards.
func (ss *ShardedSnapshot) Len() int {
	n := 0
	for _, sn := range ss.snaps {
		n += sn.Len()
	}
	return n
}

// NumRegions returns the number of live indexed regions across all
// shards.
func (ss *ShardedSnapshot) NumRegions() int {
	n := 0
	for _, sn := range ss.snaps {
		n += sn.NumRegions()
	}
	return n
}

// IDs returns the ids of all indexed images in lexicographic order —
// the canonical order for a sharded database, since insertion order
// interleaves differently at different shard counts.
func (ss *ShardedSnapshot) IDs() []string {
	out := make([]string, 0, ss.Len())
	for _, sn := range ss.snaps {
		out = append(out, sn.IDs()...)
	}
	sort.Strings(out)
	return out
}

// RegionsOf returns the regions extracted for an indexed image, read
// from its owning shard's pinned snapshot.
func (ss *ShardedSnapshot) RegionsOf(id string) ([]region.Region, bool) {
	return ss.snaps[shardOf(id, len(ss.snaps))].RegionsOf(id)
}

// ShardedStats summarizes a sharded database. Images, Regions,
// SignatureDim and DiskBacked are logical: the same corpus yields the
// same values at every shard count. Shards and PerShard describe the
// physical layout (per-shard image counts, index heights), which
// legitimately varies with the shard count.
type ShardedStats struct {
	Images, Regions int
	SignatureDim    int
	DiskBacked      bool
	Shards          int
	PerShard        []Stats
}

// Stats summarizes the snapshot's state. Every field — totals and
// per-shard breakdown alike — derives from the one pinned version
// vector, so the totals always equal the sum of the PerShard rows.
func (ss *ShardedSnapshot) Stats() ShardedStats {
	st := ShardedStats{Shards: len(ss.snaps), PerShard: make([]Stats, len(ss.snaps))}
	for i, sn := range ss.snaps {
		per := sn.Stats()
		st.PerShard[i] = per
		st.Images += per.Images
		st.Regions += per.Regions
	}
	st.SignatureDim = st.PerShard[0].SignatureDim
	st.DiskBacked = st.PerShard[0].DiskBacked
	return st
}

// front is the fleet query front over the pinned version vector.
func (ss *ShardedSnapshot) front() queryFront {
	f := queryFront{snaps: ss.snaps, fleet: true}
	if m := ss.om.Load(); m != nil {
		f.qm = m.query
	}
	return f
}

// QueryContext runs the staged pipeline across every shard of the pinned
// version vector: the query image is decomposed once, each shard probes
// and scores its own pinned view in parallel, and the per-shard rankings
// merge into one. Image ids are disjoint across shards and every shard
// sorts by the same (similarity desc, id asc) key, so the merged ranking
// is byte-identical to the single-shard one. The context rides into
// every shard's stages, so an expired request stops fanning out
// cross-shard work and returns the context's error.
func (ss *ShardedSnapshot) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return ss.front().query(ctx, nil, querySource{im: im}, p)
}

// QueryByID runs the pipeline using the stored regions of an indexed
// image, read from its owning shard's pinned snapshot, as the query
// against every shard; see Snapshot.QueryByID.
func (ss *ShardedSnapshot) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	return ss.front().query(ctx, nil, querySource{id: id}, p)
}

// QuerySceneContext is DB.QuerySceneContext across the sharded snapshot.
func (ss *ShardedSnapshot) QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	return ss.front().query(ctx, nil, querySource{im: im, scene: true, x: x, y: y, w: w, h: h}, p)
}

// query runs one query against a snapshot of the whole fleet through the
// fleet result cache, when one is configured: its key is the pinned
// version vector and a fingerprint of the query — see Options.CacheSize.
func (s *Sharded) query(ctx context.Context, src querySource, p QueryParams) ([]Match, QueryStats, error) {
	ss, err := s.Snapshot()
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer ss.Release()
	return ss.front().query(ctx, s.cache.Load(), src, p)
}

// QueryContext runs one query against a snapshot of the whole fleet; see
// ShardedSnapshot.QueryContext.
func (s *Sharded) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return s.query(ctx, querySource{im: im}, p)
}

// QueryByID queries by the stored regions of an indexed image; see
// ShardedSnapshot.QueryByID.
func (s *Sharded) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	return s.query(ctx, querySource{id: id}, p)
}

// QuerySceneContext is DB.QuerySceneContext for a sharded database.
func (s *Sharded) QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	return s.query(ctx, querySource{im: im, scene: true, x: x, y: y, w: w, h: h}, p)
}

// SetCacheSize resizes the fleet-level query result cache at runtime:
// n > 0 installs a fresh, empty cache with that capacity; n <= 0
// disables caching. See DB.SetCacheSize.
func (s *Sharded) SetCacheSize(n int) {
	if n <= 0 {
		s.cache.Store(nil)
		return
	}
	s.cache.Store(newQueryCache(n))
}

// Len returns the number of indexed images across all shards, read from
// one pinned version vector.
func (s *Sharded) Len() int {
	ss, err := s.Snapshot()
	if err != nil {
		return 0
	}
	defer ss.Release()
	return ss.Len()
}

// NumRegions returns the number of live regions across all shards, read
// from one pinned version vector.
func (s *Sharded) NumRegions() int {
	ss, err := s.Snapshot()
	if err != nil {
		return 0
	}
	defer ss.Release()
	return ss.NumRegions()
}

// IDs returns the ids of all indexed images in lexicographic order,
// read from one pinned version vector.
func (s *Sharded) IDs() []string {
	ss, err := s.Snapshot()
	if err != nil {
		return nil
	}
	defer ss.Release()
	return ss.IDs()
}

// RegionsOf returns the regions extracted for an indexed image.
func (s *Sharded) RegionsOf(id string) ([]region.Region, bool) {
	return s.shards[shardOf(id, len(s.shards))].RegionsOf(id)
}

// Stats returns a snapshot of database statistics; totals and per-shard
// rows derive from the same pinned version vector.
func (s *Sharded) Stats() ShardedStats {
	ss, err := s.Snapshot()
	if err != nil {
		return ShardedStats{}
	}
	defer ss.Release()
	return ss.Stats()
}

// VersionVector returns the current published catalog version of every
// shard. Unlike ShardedSnapshot.VersionVector it does not pin the
// versions: each element is a point-in-time read of one shard.
func (s *Sharded) VersionVector() []uint64 {
	vv := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		vv[i] = sh.Version()
	}
	return vv
}

// Flush checkpoints every shard of a disk-backed database in parallel.
func (s *Sharded) Flush() error {
	errs := make([]error, len(s.shards))
	parallel.For(len(s.shards), len(s.shards), func(i int) { errs[i] = s.shards[i].Flush() })
	return errors.Join(errs...)
}

// Close flushes and releases every shard. In-memory databases need no
// Close, but calling it is harmless.
func (s *Sharded) Close() error {
	errs := make([]error, len(s.shards))
	parallel.For(len(s.shards), len(s.shards), func(i int) { errs[i] = s.shards[i].Close() })
	return errors.Join(errs...)
}

// SetDurability changes the durability policy of every shard at
// runtime. The fleet-level option and the per-shard policies are
// updated one shard at a time: a concurrent writer may commit under the
// old policy on one shard and the new on another, but each shard's own
// commit path always sees one coherent policy.
func (s *Sharded) SetDurability(p DurabilityPolicy) {
	s.mu.Lock()
	s.opts.Durability = p
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.SetDurability(p)
	}
}

// Recovery returns the per-shard crash-recovery reports from
// OpenSharded, indexed by shard. ok is false for in-memory databases.
func (s *Sharded) Recovery() ([]RecoveryStats, bool) {
	out := make([]RecoveryStats, len(s.shards))
	ok := false
	for i, sh := range s.shards {
		rs, shardOK := sh.Recovery()
		out[i] = rs
		ok = ok || shardOK
	}
	return out, ok
}

// shardedMetrics holds the fleet-level obs handles of a Sharded
// database: cross-shard queries and snapshots, which bypass the
// individual shards' query paths. One atomic load decides whether
// instrumentation runs; nil means observability is off.
type shardedMetrics struct {
	query *queryMetrics

	activeSnapshots *obs.Gauge
	snapshotsTotal  *obs.Counter
}

// SetMetrics attaches an observability registry to the fleet and every
// shard under it. Shard-level write metrics are scoped by shard index
// (walrus_shard0_images, walrus_shard1_ingest_total, ...), so per-shard
// write skew and snapshot leaks stay visible; fleet-level query, cache
// and snapshot metrics keep the unscoped walrus_* names a standalone
// database would use. Subsystem metrics (WAL, pager, R*-tree, worker
// pool) are shared: every shard reports into the same series. Passing
// nil detaches everything.
func (s *Sharded) SetMetrics(reg *obs.Registry) {
	for i, sh := range s.shards {
		sh.setMetricsScoped(reg, fmt.Sprintf("shard%d_", i))
	}
	if reg == nil {
		s.om.Store(nil)
		return
	}
	reg.Gauge("walrus_shards", "Shard count of the sharded database.").Set(int64(len(s.shards)))
	s.om.Store(&shardedMetrics{
		query:           newQueryMetrics(reg),
		activeSnapshots: reg.Gauge("walrus_snapshots_active", "Cross-shard snapshots acquired and not yet released."),
		snapshotsTotal:  reg.Counter("walrus_snapshots_total", "Cross-shard snapshots acquired."),
	})
}

// Metrics returns a point-in-time snapshot of every metric in the
// registry attached with SetMetrics. With no registry attached it
// returns an empty snapshot with non-nil maps.
func (s *Sharded) Metrics() obs.Snapshot {
	if m := s.om.Load(); m != nil {
		return m.query.reg.Snapshot()
	}
	var none *obs.Registry
	return none.Snapshot()
}
