package walrus

import (
	"fmt"

	"walrus/internal/obs"
	"walrus/internal/parallel"
)

// queryMetrics is the query front's instrument set: the walrus_query_*
// counters and phase histograms and the walrus_cache_* series, plus the
// registry query spans root in. The DB owns the one set, unscoped at
// every shard count: every query runs through its front, never through
// a shard.
type queryMetrics struct {
	reg *obs.Registry

	queries          *obs.Counter
	queryRegions     *obs.Counter
	regionsRetrieved *obs.Counter
	candidates       *obs.Counter
	scored           *obs.Counter

	querySeconds   *obs.Histogram
	extractSeconds *obs.Histogram
	probeSeconds   *obs.Histogram
	scoreSeconds   *obs.Histogram

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheDeltas    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge
}

func newQueryMetrics(reg *obs.Registry) *queryMetrics {
	return &queryMetrics{
		reg:              reg,
		queries:          reg.Counter("walrus_query_total", "Queries served."),
		queryRegions:     reg.Counter("walrus_query_regions_total", "Regions extracted from query images."),
		regionsRetrieved: reg.Counter("walrus_query_regions_retrieved_total", "Matching database regions retrieved by index probes."),
		candidates:       reg.Counter("walrus_query_candidates_total", "Candidate images the index probes of queries retrieved."),
		scored:           reg.Counter("walrus_query_scored_total", "Candidate images scored by queries; the rest were skipped by the coverage bound."),
		querySeconds:     reg.Histogram("walrus_query_seconds", "End-to-end query latency.", nil),
		extractSeconds:   reg.Histogram("walrus_query_extract_seconds", "Query region-extraction phase latency.", nil),
		probeSeconds:     reg.Histogram("walrus_query_probe_seconds", "Query index-probe phase latency.", nil),
		scoreSeconds:     reg.Histogram("walrus_query_score_seconds", "Query candidate-scoring phase latency.", nil),
		cacheHits:        reg.Counter("walrus_cache_hits_total", "Queries served from the result cache."),
		cacheMisses:      reg.Counter("walrus_cache_misses_total", "Cacheable queries that ran the full pipeline and populated the cache."),
		cacheDeltas:      reg.Counter("walrus_cache_deltas_total", "Cacheable queries that brought a cached answer forward by scoring only the images added since it."),
		cacheEvictions:   reg.Counter("walrus_cache_evictions_total", "Result-cache entries evicted by LRU."),
		cacheEntries:     reg.Gauge("walrus_cache_entries", "Result-cache entries currently held."),
	}
}

// dbMetrics holds the database-level obs handles. One pointer load on
// the query path decides whether instrumentation runs at all; a nil
// pointer (observability off) costs a single atomic load and no clock
// reads beyond the ones QueryStats already pays for.
type dbMetrics struct {
	query *queryMetrics

	// The cross-shard snapshot series; nil on a one-shard database, whose
	// shard owns the unscoped walrus_snapshots_* series itself.
	activeSnapshots *obs.Gauge
	snapshotsTotal  *obs.Counter
}

// shardMetrics holds one shard's pre-resolved write and snapshot
// handles.
type shardMetrics struct {
	reg *obs.Registry

	ingests       *obs.Counter
	ingestRegions *obs.Counter
	ingestSeconds *obs.Histogram
	removes       *obs.Counter
	checkpoints   *obs.Counter

	images  *obs.Gauge
	regions *obs.Gauge

	snapshotVersion *obs.Gauge
	activeSnapshots *obs.Gauge
	snapshotsTotal  *obs.Counter
	publishes       *obs.Counter
	publishSeconds  *obs.Histogram
}

// SetMetrics attaches an observability registry to the database and every
// subsystem under it: query and ingest phase metrics publish alongside the
// buffer pool, pager, heap, WAL, R*-tree and worker-pool counters in one
// namespace. Passing nil detaches everything (the default state: with no
// registry the instrumentation is a nil fast path).
//
// A one-shard database reports every series under its unscoped walrus_*
// name. On more shards the per-shard write, snapshot and recovery series
// are scoped by shard index (walrus_shard0_images,
// walrus_shard1_ingest_total, ...), so per-shard write skew and snapshot
// leaks stay visible, and walrus_shards, the cross-shard
// walrus_snapshots_* series and every query and cache series keep their
// unscoped names. Subsystem metrics (WAL, pager, R*-tree, worker pool)
// are shared: every shard reports into the same series.
//
// The registry is attached at runtime rather than through Options because
// Options is gob-encoded into the page file by Create. Call SetMetrics after
// New, Create or Open; it is safe to call while readers run, but metrics
// recorded before the call are not retroactively created.
//
// The worker-pool gauges are process-global: when several databases share
// a process, the last SetMetrics call wins for walrus_pool_*.
func (db *DB) SetMetrics(reg *obs.Registry) {
	sharded := len(db.shards) > 1
	for i, sh := range db.shards {
		scope := ""
		if sharded {
			scope = fmt.Sprintf("shard%d_", i)
		}
		sh.setMetrics(reg, scope)
	}
	if reg == nil {
		db.om.Store(nil)
		return
	}
	m := &dbMetrics{query: newQueryMetrics(reg)}
	if sharded {
		reg.Gauge("walrus_shards", "Shard count of the sharded database.").Set(int64(len(db.shards)))
		m.activeSnapshots = reg.Gauge("walrus_snapshots_active", "Cross-shard snapshots acquired and not yet released.")
		m.snapshotsTotal = reg.Counter("walrus_snapshots_total", "Cross-shard snapshots acquired.")
	}
	db.om.Store(m)
}

// setMetrics attaches reg to the shard and its subsystems. A non-empty
// scope like "shard3_" is spliced after the walrus_ prefix of every
// shard-level metric (walrus_shard3_images, walrus_shard3_ingest_total,
// ...), giving each shard its own series in one shared registry.
// Subsystem metrics (R*-tree, buffer pool, pager, heap, WAL, worker
// pool) keep their unscoped names: the registry returns the same handle
// for a duplicate name, so shards aggregate into one series there.
func (sh *shard) setMetrics(reg *obs.Registry, scope string) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.tree.SetMetrics(reg)
	if p := sh.persist; p != nil {
		p.pool.SetMetrics(reg)
		p.pg.SetMetrics(reg)
		p.heap.SetMetrics(reg)
		p.wal.SetMetrics(reg)
	}
	parallel.SetMetrics(reg)
	if reg == nil {
		sh.om.Store(nil)
		return
	}
	m := newShardMetrics(reg, scope)
	m.images.Set(int64(sh.byID.len()))
	m.regions.Set(int64(sh.liveRegions))
	if c := sh.cur.Load(); c != nil {
		m.snapshotVersion.Set(int64(c.version))
	}
	if p := sh.persist; p != nil {
		publishRecovery(reg, scope, p.recovery)
	}
	sh.om.Store(m)
}

// newShardMetrics resolves every shard-level handle in the registry
// under the given name scope ("" on a one-shard database, "shardN_" per
// shard on more).
func newShardMetrics(reg *obs.Registry, scope string) *shardMetrics {
	n := func(base string) string { return "walrus_" + scope + base }
	return &shardMetrics{
		reg:             reg,
		ingests:         reg.Counter(n("ingest_total"), "Images ingested."),
		ingestRegions:   reg.Counter(n("ingest_regions_total"), "Regions indexed by ingest."),
		ingestSeconds:   reg.Histogram(n("ingest_seconds"), "Per-image catalog and index insertion latency (excludes region extraction).", nil),
		removes:         reg.Counter(n("removes_total"), "Images removed."),
		checkpoints:     reg.Counter(n("checkpoints_total"), "Checkpoints taken by the disk store."),
		images:          reg.Gauge(n("images"), "Indexed images."),
		regions:         reg.Gauge(n("regions"), "Live indexed regions."),
		snapshotVersion: reg.Gauge(n("snapshot_version"), "Currently published catalog version."),
		activeSnapshots: reg.Gauge(n("snapshots_active"), "Snapshots acquired and not yet released."),
		snapshotsTotal:  reg.Counter(n("snapshots_total"), "Snapshots acquired."),
		publishes:       reg.Counter(n("publishes_total"), "Catalog versions published by writers."),
		publishSeconds:  reg.Histogram(n("publish_seconds"), "Latency of building and publishing one catalog version.", nil),
	}
}

// publishRecovery exposes the crash-recovery stats of the last Open as
// gauges; they describe a one-time event, not an accumulating count. The
// scope keeps each shard's recovery report distinct.
func publishRecovery(reg *obs.Registry, scope string, rs RecoveryStats) {
	replayed := int64(0)
	if rs.Replayed {
		replayed = 1
	}
	n := func(base string) string { return "walrus_" + scope + base }
	reg.Gauge(n("recovery_replayed"), "1 when the last Open replayed a WAL after an unclean shutdown.").Set(replayed)
	reg.Gauge(n("recovery_records_scanned"), "WAL records scanned by the last recovery.").Set(int64(rs.RecordsScanned))
	reg.Gauge(n("recovery_pages_applied"), "Page images applied by the last recovery.").Set(int64(rs.PagesApplied))
	reg.Gauge(n("recovery_pages_skipped"), "Page images skipped by the last recovery (already on disk).").Set(int64(rs.PagesSkipped))
}

// Metrics returns a point-in-time snapshot of every metric in the
// registry attached with SetMetrics — the programmatic counterpart of the
// /metrics endpoint. With no registry attached it returns an empty
// snapshot with non-nil maps.
func (db *DB) Metrics() obs.Snapshot {
	if m := db.om.Load(); m != nil {
		return m.query.reg.Snapshot()
	}
	var none *obs.Registry
	return none.Snapshot()
}
