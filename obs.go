package walrus

import (
	"walrus/internal/obs"
	"walrus/internal/parallel"
)

// queryMetrics is the query front's instrument set: the walrus_query_*
// counters and phase histograms and the walrus_cache_* series, plus the
// registry query spans root in. A standalone DB and a Sharded fleet each
// own one; the shards of a fleet own none, since fleet queries never run
// through a shard's own front.
type queryMetrics struct {
	reg *obs.Registry

	queries          *obs.Counter
	queryRegions     *obs.Counter
	regionsRetrieved *obs.Counter
	candidates       *obs.Counter

	querySeconds   *obs.Histogram
	extractSeconds *obs.Histogram
	probeSeconds   *obs.Histogram
	scoreSeconds   *obs.Histogram

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge
}

func newQueryMetrics(reg *obs.Registry) *queryMetrics {
	return &queryMetrics{
		reg:              reg,
		queries:          reg.Counter("walrus_query_total", "Queries served."),
		queryRegions:     reg.Counter("walrus_query_regions_total", "Regions extracted from query images."),
		regionsRetrieved: reg.Counter("walrus_query_regions_retrieved_total", "Matching database regions retrieved by index probes."),
		candidates:       reg.Counter("walrus_query_candidates_total", "Candidate images scored by queries."),
		querySeconds:     reg.Histogram("walrus_query_seconds", "End-to-end query latency.", nil),
		extractSeconds:   reg.Histogram("walrus_query_extract_seconds", "Query region-extraction phase latency.", nil),
		probeSeconds:     reg.Histogram("walrus_query_probe_seconds", "Query index-probe phase latency.", nil),
		scoreSeconds:     reg.Histogram("walrus_query_score_seconds", "Query candidate-scoring phase latency.", nil),
		cacheHits:        reg.Counter("walrus_cache_hits_total", "Queries served from the result cache."),
		cacheMisses:      reg.Counter("walrus_cache_misses_total", "Cacheable queries that executed and populated the cache."),
		cacheEvictions:   reg.Counter("walrus_cache_evictions_total", "Result-cache entries evicted by LRU."),
		cacheEntries:     reg.Gauge("walrus_cache_entries", "Result-cache entries currently held."),
	}
}

// dbMetrics holds the DB's pre-resolved obs handles. One pointer load on
// the query path decides whether instrumentation runs at all; a nil
// pointer (observability off) costs a single atomic load and no clock
// reads beyond the ones QueryStats already pays for.
type dbMetrics struct {
	reg *obs.Registry

	// query is nil on a shard of a Sharded database.
	query *queryMetrics

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
// The registry is attached at runtime rather than through Options because
// Options is gob-encoded into the on-disk catalog. Call SetMetrics after
// New, Create or Open; it is safe to call while readers run, but metrics
// recorded before the call are not retroactively created.
//
// The worker-pool gauges are process-global: when several databases share
// a process, the last SetMetrics call wins for walrus_pool_*.
func (db *DB) SetMetrics(reg *obs.Registry) { db.setMetricsScoped(reg, "") }

// setMetricsScoped is SetMetrics with a metric-name scope. A non-empty
// scope like "shard3_" is spliced after the walrus_ prefix of every
// DB-level metric (walrus_shard3_images, walrus_shard3_ingest_total, ...),
// giving each shard of a Sharded database its own series in one shared
// registry. A scoped metric set has no query or cache series: the fleet
// answers every query and reports it under its own unscoped names.
// Subsystem metrics (R*-tree, buffer pool, pager, heap, WAL, worker
// pool) keep their unscoped names: the registry returns the same handle
// for a duplicate name, so shards aggregate into one series there.
func (db *DB) setMetricsScoped(reg *obs.Registry, scope string) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.tree.SetMetrics(reg)
	if p := db.persist; p != nil {
		p.pool.SetMetrics(reg)
		p.pg.SetMetrics(reg)
		p.heap.SetMetrics(reg)
		p.wal.SetMetrics(reg)
	}
	parallel.SetMetrics(reg)
	if reg == nil {
		db.om.Store(nil)
		return
	}
	m := newDBMetrics(reg, scope)
	m.images.Set(int64(db.byID.len()))
	m.regions.Set(int64(db.liveRegions))
	if c := db.cur.Load(); c != nil {
		m.snapshotVersion.Set(int64(c.version))
	}
	if p := db.persist; p != nil {
		publishRecovery(reg, scope, p.recovery)
	}
	db.om.Store(m)
}

// newDBMetrics resolves every DB-level handle in the registry under the
// given name scope ("" for a standalone database, "shardN_" per shard).
func newDBMetrics(reg *obs.Registry, scope string) *dbMetrics {
	n := func(base string) string { return "walrus_" + scope + base }
	m := &dbMetrics{
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
	if scope == "" {
		m.query = newQueryMetrics(reg)
	}
	return m
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
	reg.Gauge(n("recovery_app_records"), "Catalog deltas delivered by the last recovery.").Set(int64(rs.AppRecords))
}

// Metrics returns a point-in-time snapshot of every metric in the
// registry attached with SetMetrics — the programmatic counterpart of the
// /metrics endpoint. With no registry attached it returns an empty
// snapshot with non-nil maps.
func (db *DB) Metrics() obs.Snapshot {
	if m := db.om.Load(); m != nil {
		return m.reg.Snapshot()
	}
	var none *obs.Registry
	return none.Snapshot()
}
