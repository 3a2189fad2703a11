package main

// metricDef names one metric of BENCHMARK.json. The tables below are the
// single source of the names the benchmark prints; manifest_test.go holds
// BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none.
	Bound float64
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"ingest_extract", "In-memory DB.Add of paper-size images: region extraction (colorspace, wavelet DP, BIRCH) dominates, no WAL or pager."},
	{"ingest_durable", "Disk DB.Add/Remove of one-window 64x64 images with fsync per commit: WAL, pager, R*-tree and COW publish dominate, extraction is negligible."},
	{"query_pixels", "Cold DB.QueryContext by pixels on an in-memory corpus: extract, probe, aggregate, score; carries the retrieval-quality guard."},
	{"query_stored_disk", "DB.QueryByID on a reopened disk DB whose R*-tree exceeds the 256-page buffer pool: no extraction, probe goes through bufpool and pager."},
	{"serve_mixed", "Open-loop HTTP mix (85% search, 15% ingest) on a 2-shard server with a result cache: decode, admission, coalescer, cache, fan-out, JSON."},
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them.
//
// The timing bounds are as wide as the driver allows because the
// reference box is that noisy: its CPU runs at speeds some 30% apart for
// seconds to minutes at a time, ten seeds of one commit spread (IQR over
// median) by 5% in a calm hour and by up to 20% in a busy one, and the
// medians of two such sets have differed by 30%. README.md has the
// measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"precision_at_10", "ratio", "higher", 0.10},
}

// perLayer comes from the traced run: harness spans around public calls
// into each layer, and counts from public return values. A layer a
// workload does not reach reports 0 there.
var perLayer = []metricDef{
	{"imgio.decode_ppm_us", "us", "lower", 0},
	{"colorspace.from_rgb_us", "us", "lower", 0},
	{"wavelet.sliding_us", "us", "lower", 0},
	{"wavelet.windows_per_image", "count", "lower", 0},
	{"birch.cluster_us", "us", "lower", 0},
	{"birch.clusters_per_image", "count", "lower", 0},
	{"region.extract_us", "us", "lower", 0},
	{"region.self_us", "us", "lower", 0},
	{"region.regions_per_image", "count", "lower", 0},
	{"region.alloc_bytes_per_image", "bytes", "lower", 0},
	{"rstar.search_us", "us", "lower", 0},
	{"rstar.nodes_visited_per_probe", "count", "lower", 0},
	{"rstar.hits_per_probe", "count", "lower", 0},
	{"rstar.insert_us", "us", "lower", 0},
	{"match.score_us", "us", "lower", 0},
	{"match.pairs_per_candidate", "count", "lower", 0},
	{"walrus.add_us", "us", "lower", 0},
	{"walrus.add_residual_us", "us", "lower", 0},
	{"walrus.add_residual_first_us", "us", "lower", 0},
	{"walrus.add_residual_last_us", "us", "lower", 0},
	{"walrus.snapshot_acquire_us", "us", "lower", 0},
	{"walrus.query_us", "us", "lower", 0},
	{"walrus.query_residual_us", "us", "lower", 0},
	{"walrus.regions_retrieved_per_query", "count", "lower", 0},
	{"walrus.candidates_per_query", "count", "lower", 0},
	{"walrus.probe_precision", "ratio", "higher", 0},
	{"walrus.cache_hit_ratio", "ratio", "higher", 0},
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.fsyncs_per_write", "count", "lower", 0},
	{"wal.bytes_per_write", "bytes", "lower", 0},
	{"wal.recovery_ms", "ms", "lower", 0},
	{"store.pager_writes_per_write", "count", "lower", 0},
	{"store.bufpool_hit_ratio", "ratio", "higher", 0},
	{"store.pager_reads_per_query", "count", "lower", 0},
	{"store.disk_bytes_per_image", "bytes", "lower", 0},
	{"shard.query_ratio_2v1", "ratio", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.overhead_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.load_inflation", "ratio", "lower", 0},
	{"serve.response_bytes_per_search", "bytes", "lower", 0},
	{"serve.shed_fraction", "ratio", "lower", 0},
	{"serve.writes_per_version", "count", "higher", 0},
	{"serve.gen_lag_p95_ms", "ms", "lower", 0},
	{"serve.max_rate_in_slo_rps", "1/s", "higher", 0},
	{"serve.write_p50_ms", "ms", "lower", 0},
	{"serve.write_p95_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}
