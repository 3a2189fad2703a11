#!/bin/sh
# CI gate for the WALRUS repo. Tiers (each prints its wall time; the
# script aborts at the first failing tier, so the cheap static tiers
# gate the expensive race tiers):
#   0. build — a compile error should read as a compile error, not as a
#      lint loader failure, so the build gates everything. `bench/` is its
#      own Go module, which the root build skips, so it is built and
#      vetted here too: deleting something the benchmark calls fails at
#      once, not minutes later in tier 2b
#   0. formatting + static analysis (gofmt, go vet, walrus-lint — the
#      repo's own analyzers: ctxflow, determinism, errsink, goroleak,
#      hotalloc, lockdiscipline, obs, parallelconv, snapshotsafe; see
#      DESIGN.md "Static analysis")
#   1. race tier: go test -race -short — runs the concurrency stress
#      tests (mixed Add/Query/Remove) under the race detector on every PR
#   1b. obs tier: scrapes the live /metrics endpoint while the
#      Add/Query/Remove stress runs and fails on malformed Prometheus
#      text or expvar JSON (TestObsScrapeUnderLoad + the exposition
#      validator's own tests), and races histogram snapshots against
#      observers (TestHistogramSnapshotConsistent: a torn read once put
#      the +Inf bucket above _count). These two and
#      TestObsCountDeterminism run ten times each: all three were flaky
#      once, one race in tens of runs
#   1c. snapshot tier: stresses snapshot acquire/release against
#      concurrent publication under the race detector and fails if the
#      active-snapshots gauge does not drain to zero (pin leak) or a
#      pinned version tears; also runs the copy-on-write id-index tests
#      (pinned versions across add/remove/re-add, one writer against
#      lock-free readers, write bytes flat in the catalog size) and the
#      metrics golden (a fixed add/batch/remove/query/snapshot/flush
#      sequence reports the same series and values at one and two shards
#      as the two database types did before they merged), and the region
#      columns: live heap bytes per region of a 600-image database in
#      memory at one and three shards and reopened from disk, and
#      RegionsOf returning the extractor's fields bit for bit under
#      UseBBox and FineSignature
#   1d. shard tier: runs the shard-count determinism matrix (every shard
#      count must reproduce the shards=1 oracle byte-for-byte), the
#      per-shard crash matrix, the cross-shard fan-out oracle, the
#      on-disk layouts (plain, multi-shard and the old one-shard
#      manifest layout open and answer alike; a failed multi-shard create
#      leaves no manifest), writes after Close (ErrClosed, nothing
#      changed in memory or on reopen) under the race detector, plus the
#      query-front suite: every front (DB and Snapshot at one and three shards)
#      agrees on answers and errors for pixels, id and scene queries,
#      exports exactly the three Query* entry points, and keeps query
#      state at the database;
#      with the cache protocol, trace-completeness and funnel-determinism
#      tests that the front runs under
#   1e. explain tier: runs the trace/EXPLAIN suite under the race
#      detector — the 4-shard trace-completeness storm (single root, no
#      orphaned spans, funnel counts identical at every GOMAXPROCS),
#      the funnel determinism matrix (shards 1 vs 4), the span-ring
#      overflow counter, and the golden-file test pinning the
#      /v1/search?explain=1 JSON schema
#   1f. serve tier: exercises the HTTP front-end under the race detector
#      — handler contracts, admission saturation (429 + gauges draining
#      to zero), write atomicity (N concurrent POSTs publish exactly N
#      versions; a batch with a stored or repeated id is refused whole
#      and publishes nothing), and the graceful-drain no-acked-write-lost
#      proof (plain and sharded backends against a live listener, and a
#      mounted handler, where post-drain writes must be 503), plus the
#      Drain-before-Serve and Drain-racing-Serve regressions. The load harness itself is `bash bench/run.sh
#      --workload serve_mixed`; it is not part of the CI gate.
#   1g. cache tier: runs the result-cache protocol suite under the race
#      detector at one and four procs — hit/miss/bypass, the version
#      stamp (an answer is served only at the version it was computed
#      at; a front pinned at an old version and the live database never
#      get each other's answer), region reuse (a miss after a write
#      probes from the kept regions, runs no extraction, and answers what
#      NoCache answers), exactness against NoCache over a seeded mix of
#      queries and writes, the delta (TestQueryCacheDelta: an answer
#      brought forward across adds equals NoCache under every matcher,
#      τ, Limit and refine at one shard and three, every fallback occurs,
#      and the delta scan keeps exactly the probe's hits past a mark),
#      private pairs (TestQueryCachePrivatePairs: a caller writing to an
#      answer's pairs changes no later hit or delta), churn, the pixel
#      fingerprint, and the bytes a
#      cached stored query keeps (no per-region bitmap words, boxes only
#      under UseBBox)
#   1h. probe exactness tier: the R*-tree probe, bulk-load and insert
#      tests under the race detector — the insert heuristics
#      (ChooseSubtree, the split) against their O(M²) reference on
#      tie-heavy nodes, ε-ball pruning against brute force
#      on ulp-adjacent shells, every store kind, insert-grown and packed
#      12-d trees, box-only visits unchanged, allocation bounds, the
#      packer's shape (ceil(n/M) leaves, at most two non-full nodes per
#      level, minimum fill) at dims 1–12 and capacities 4–19, golden
#      digests of insert-built trees, and allocations per Insert; the
#      paged store's own tests (TestPagedStore*: point leaves with their
#      two capacities, insert/delete/condense, leaf-kind recording, Put
#      refusing boxes, decode allocations, corruption); the in-memory
#      store's (TestMemStore*: in-memory and overlay nodes are pages in
#      the paged layout, scanned by the same kernel, so point leaves
#      refuse boxes there too and encode/decode round-trips bit for bit);
#      and the DB-level leaf layout tests (TestLeafLayout*: the
#      pre-point-leaf centroid fixture, a catalog.gob database, is refused
#      with every file unchanged,
#      UseBBox keeps box leaves, a box-leaf reader refuses a point-leaf
#      store) at 1 and 3 shards; ball-only probes against euclid on 12-d
#      trees of every store kind, with points one ulp outside the ε-cube's
#      rounded edge (TestProbeBallMatchesEuclid); and the node CRC's trust
#      boundary — once per pool residence, re-armed by a dirty write, the
#      entry-count bound on every scan (TestPagedStoreChecksOncePerResidence,
#      and the buffer pool's TestFrameChecked*: clean and dirty unpins,
#      eviction, concurrent scanners marking one frame); and the blocked
#      ball kernels against their per-coordinate references at d = 1–5,
#      12 and 13, with points on the sphere, bounds at every prefix sum
#      and NaN/±Inf at every position of a block
#      (TestBallKernelMatchesReference)
#   1i. extraction exactness tier: pins every region of a seeded image
#      set (odd and step-misaligned sizes, several window ranges, a finer
#      second-tier signature, HSV, Workers = 1) to SHA-256
#      digests, bounds the bytes one Extract allocates, checks that one
#      Extract sends no task through the worker pool, and holds every
#      level the sliding-window DP stores, on one plane and fused with
#      colour conversion, to a reference kernel bit for bit (random
#      sizes, steps 1–16, signature sides 1–4, every MinWindow up to
#      MaxWindow 16 and 64); the finiteness check (NaN and ±Inf at a
#      read pixel, in the last row and in the last column, refused with
#      CheckRGB's error by the DP and by Extract); and the PPM decoder against its per-sample reference
#      (P5/P6, 8 and 16 bits, odd sizes, truncated rasters)
#   1j. query tail exactness tier: the bounded top-k selection against a
#      full sort (ties, every Limit, τ), the quick scorer (checked and
#      trusted entries) against a map-based reference for pairs in any
#      order, the scorer's input checks, the bitmap grid check on every
#      path into a catalog and on the query, the aggregate stage's pair
#      runs and score-bound inputs against the flat hit list, and its
#      rankings with the list shuffled across regions, the coverage
#      bound against every matcher and denominator (TestScoreBound*),
#      bounded scoring against an index-free linear scan at shards 1 and
#      3, refine off and on, τ 0 and 0.4, Limit 0, 1 and 10, with its
#      scored count equal at GOMAXPROCS 1 and 8 (TestBoundedScoringExact),
#      the chunked in-place refine filter against a serial one, sharded
#      rankings at low Limits against the unsharded ones, the shard-count
#      matrix, and the allocations per query after extraction
#   1k. no fused multiply-add anywhere in walrus: Go may fuse x*y + z on
#      arm64, ppc64le and riscv64 (never on amd64), which would make
#      extraction (colour conversion, BIRCH), the ε-ball test and the
#      scorers' covered areas round differently by GOARCH; an arm64, a
#      ppc64le and a riscv64 build of walrus-query, read back with go tool
#      objdump, must hold no FMADD/FMSUB/FNMADD/FNMSUB (or their D/S
#      forms) in any walrus symbol (offline: cross-compiling needs no
#      network)
#   1l. durability tier: the crash matrices (every kill point of a
#      scripted workload, plus kills whole and torn inside each zero
#      extension and in-place header rewrite of the write-ahead log), a
#      CreateFrom killed at every file operation at 1 and 3 shards (Open
#      fails, refuses an interrupted rebuild, or holds every item), the
#      per-shard crash matrix, recovery stats, reopen, the catalog Open
#      rebuilds from the page file's heap (equal to the never-closed
#      database's after a close and from a mid-run crash copy, oversized
#      image records refused, the options written once by Create, a
#      checkpoint that writes the page file and the log alone) and the
#      log's own suite (torn tail at every offset of the written log,
#      stale generations never replayed, a reused file that neither
#      truncates nor grows) under the race detector
#   1m. determinism tier: GOMAXPROCS sizes every worker pool (batch
#      extraction, the refine pass, the shard fan-out), so ingest and
#      query must give the same databases, rankings, stats and metric
#      counts at GOMAXPROCS 1 and at 4 or more (the determinism_test.go
#      suite, the shard x GOMAXPROCS x refine query matrix and the count
#      metrics) under the race detector
#   2. full test suite
#   2b. benchmark harness tests: `bench/` is its own Go module (it
#      replaces `walrus` with `../`), so `go test ./...` above never
#      reaches it; this tier runs its unit tests (manifest vs
#      BENCHMARK.json, stats, spans, open-loop pacing, corpus). The
#      benchmark itself (`bash bench/run.sh`, `--selfcheck`) takes
#      minutes and is host-sensitive, so it stays out of the gate.
#   3. vulnerability scan (default, non-fatal): govulncheck runs on
#      every CI pass when available, installing a pinned version into
#      the local GOPATH when missing; findings and install failures are
#      reported but never fail the gate (WALRUS_CI_VULN=0 disables)
#   4. fuzz smoke (opt-in): WALRUS_CI_FUZZ=1 ./ci.sh runs each fuzz
#      target (PPM decoder, WAL replay, image record decoder, score
#      bound) for a few
#      seconds of random input
#      on top of their always-on seed corpora
set -eu
cd "$(dirname "$0")"

# tier NAME CMD...: announce the tier, run it (aborting the script on
# failure via set -e), and print its wall time.
tier() {
    _name="$1"
    shift
    echo "== $_name =="
    _start=$(date +%s)
    "$@"
    echo "-- $_name: $(($(date +%s) - _start))s"
}

check_gofmt() {
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

obs_tier() {
    go test -race -count=10 -run 'TestObsScrapeUnderLoad|TestObsCountDeterminism' . &&
        go test -race -count=10 -run 'TestHistogramSnapshotConsistent' ./internal/obs
}

check_no_fma() {
    _out="$(mktemp -d)"
    for _arch in arm64 ppc64le riscv64; do
        if ! GOARCH=$_arch go build -o "$_out/walrus-query-$_arch" ./cmd/walrus-query; then
            rm -rf "$_out"
            return 1
        fi
        _fused=$(go tool objdump -s '^walrus' "$_out/walrus-query-$_arch" | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' || true)
        if [ -n "$_fused" ]; then
            rm -rf "$_out"
            echo "fused multiply-add in a walrus symbol on $_arch:" >&2
            echo "$_fused" >&2
            return 1
        fi
    done
    rm -rf "$_out"
}

bench_build() {
    (cd bench && go build -o /dev/null ./... && go vet ./...)
}

bench_tests() {
    (cd bench && go test ./...)
}

run_vuln() {
    # Non-fatal by design: a scan finding (or a sandboxed CI host with no
    # network to install the tool) must not mask a red/green signal on
    # the code itself.
    vulncheck="$(command -v govulncheck || true)"
    if [ -z "$vulncheck" ]; then
        gobin="$(go env GOPATH)/bin"
        echo "govulncheck not installed; installing pinned version..."
        if go install golang.org/x/vuln/cmd/govulncheck@v1.1.4 2>/dev/null; then
            vulncheck="$gobin/govulncheck"
        else
            echo "govulncheck install failed (offline?); skipping scan"
            return 0
        fi
    fi
    if "$vulncheck" ./...; then
        echo "govulncheck: no known vulnerabilities"
    else
        echo "govulncheck reported findings (non-fatal; inspect above)"
    fi
}

tier "tier 0: build" go build ./...
tier "tier 0: bench module build + vet" bench_build
tier "tier 0: gofmt" check_gofmt
tier "tier 0: go vet" go vet ./...
tier "tier 0: walrus-lint" go run ./cmd/walrus-lint -v ./...

tier "tier 1: race (short)" go test -race -short ./...
tier "tier 1: obs scrape during stress" obs_tier
tier "tier 1: obs exposition validators" go test -count=1 -run 'TestPrometheusOutputValidates|TestValidatePrometheusRejectsMalformed|TestHandlerEndpoints' ./internal/obs
tier "tier 1: snapshot (acquire/release vs publish, leak check, id index, metrics golden, region columns)" go test -race -count=1 -run 'TestSnapshot|TestIDIndex|TestMetricsGolden|TestCatalogBytesPerRegion|TestCatalogKeepsExtractedFields' .
tier "tier 1: shard (determinism matrix, crash recovery, fan-out oracle, layouts, write after close, query fronts)" go test -race -count=1 -run 'TestShard|TestLayoutCompat|TestWriteAfterClose|TestQueryFrontsAgree|TestQueryFrontErrors|TestQueryEntryPoints|TestQueryCache|TestTraceCompleteness|TestExplainFunnelDeterminism' .
tier "tier 1: explain (trace completeness, funnel determinism, schema golden)" go test -race -count=1 -run 'TestTrace|TestExplain' ./...
tier "tier 1: serve (handlers, admission, write atomicity, graceful drain)" go test -race -count=1 -run 'TestServe' ./...
tier "tier 1: cache (result-cache protocol: version stamp, region reuse, exactness, delta, private pairs, fingerprint, stored query bytes)" go test -race -count=1 -cpu 1,4 -run 'TestQueryCache|TestQueryCacheDelta|TestQueryCachePrivatePairs|TestQueryFingerprint|TestStoredQueryBytes' ./...
tier "tier 1: probe exactness (ball pruning vs brute force, packing and insert shape, ChooseSubtree and split vs reference, paged leaf layouts)" go test -race -count=1 -run 'TestProbe|TestBulkLoad|TestInsertShape|TestInsertAllocations|TestChooseSubtree|TestSplit|TestPagedStore|TestMemStore|TestLeafLayout|TestFrameChecked|TestBallKernel' . ./internal/rstar ./internal/store

tier "tier 1: extraction exactness (golden regions, allocations, no pool tasks, DP against its reference, non-finite samples, PPM decoder)" go test -race -count=1 -run 'TestExtractGolden|TestExtractAllocations|TestExtractRunsOnCaller|TestSlidingMatchesReference|TestSlidingRejectsNonFinite|TestExtractRejectsNonFinite|TestDecodePPMMatchesReference' ./internal/region ./internal/wavelet ./internal/imgio
tier "tier 1: query tail exactness (top-k, quick scorer, grid check, aggregate, score bound, bounded scoring, refine, allocations, shard limit)" go test -race -count=1 -run 'TestQueryAllocations|TestScoreQuick|TestScoreValidation|TestGridCheck|TestTopK|TestAggregateStage|TestScoreBound|TestBoundedScoringExact|TestRefineStage|TestShardMatchesUnsharded|TestShardMatrixDeterminism' . ./internal/match

tier "tier 1: no fused multiply-add in any walrus symbol (arm64, ppc64le, riscv64 objdump)" check_no_fma
tier "tier 1: durability (crash matrices, recovery, log reuse)" go test -race -count=1 -run 'TestCrash|TestShardCrash|TestDurability|TestRecover|TestLog|TestOpen|TestRemoveSurvivesReopen' . ./internal/wal

tier "tier 1: determinism (ingest and query identical at GOMAXPROCS 1 and N)" go test -race -count=1 -run 'TestAddBatchParallelDeterminism|TestBuildFromParallelDeterminism|TestQueryParallelismDeterminism|TestAggregateStage|TestQueryDeterminismMatrix|TestObsCountDeterminism' .

tier "tier 2: full tests" go test ./...
tier "tier 2: benchmark harness tests" bench_tests

if [ "${WALRUS_CI_VULN:-1}" = "1" ]; then
    tier "tier 3: govulncheck (non-fatal)" run_vuln
fi

if [ "${WALRUS_CI_FUZZ:-0}" = "1" ]; then
    tier "tier 4: fuzz smoke (imgio)" go test -fuzz FuzzDecodePPM -fuzztime "${WALRUS_CI_FUZZTIME:-10s}" ./internal/imgio
    tier "tier 4: fuzz smoke (wal)" go test -fuzz FuzzReplayWAL -fuzztime "${WALRUS_CI_FUZZTIME:-10s}" ./internal/wal
    tier "tier 4: fuzz smoke (image records)" go test -run FuzzImageRecord -fuzz FuzzImageRecord -fuzztime "${WALRUS_CI_FUZZTIME:-10s}" .
    tier "tier 4: fuzz smoke (score bound)" go test -run FuzzScoreBound -fuzz FuzzScoreBound -fuzztime "${WALRUS_CI_FUZZTIME:-10s}" ./internal/match
fi

echo "CI OK"
