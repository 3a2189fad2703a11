#!/bin/sh
# CI gate for the WALRUS repo. Tiers (each prints its wall time; the
# script aborts at the first failing tier, so the cheap static tiers
# gate the expensive race tiers):
#   0. build — a compile error should read as a compile error, not as a
#      lint loader failure, so the build gates everything
#   0. formatting + static analysis (gofmt, go vet, walrus-lint — the
#      repo's own analyzers: ctxflow, determinism, errsink, goroleak,
#      hotalloc, lockdiscipline, obs, parallelconv, snapshotsafe; see
#      DESIGN.md "Static analysis"). walrus-lint runs with its
#      per-package result cache and subtracts the checked-in
#      .walrus-lint-baseline, so only new findings fail
#   1. race tier: go test -race -short — runs the concurrency stress
#      tests (mixed Add/Query/Remove) under the race detector on every PR
#   1b. obs tier: scrapes the live /metrics endpoint while the
#      Add/Query/Remove stress runs and fails on malformed Prometheus
#      text or expvar JSON (TestObsScrapeUnderLoad + the exposition
#      validator's own tests)
#   1c. snapshot tier: stresses snapshot acquire/release against
#      concurrent publication under the race detector and fails if the
#      active-snapshots gauge does not drain to zero (pin leak) or a
#      pinned version tears
#   1d. shard tier: runs the shard-count determinism matrix (every shard
#      count must reproduce the shards=1 oracle byte-for-byte), the
#      per-shard crash matrix and the cross-shard fan-out oracle under
#      the race detector
#   1e. explain tier: runs the trace/EXPLAIN suite under the race
#      detector — the 4-shard trace-completeness storm (single root, no
#      orphaned spans, funnel counts identical at every Parallelism),
#      the funnel determinism matrix (shards 1 vs 4), the span-ring
#      overflow counter, and the golden-file test pinning the
#      /v1/search?explain=1 JSON schema
#   1f. serve tier: exercises the HTTP front-end under the race detector
#      — handler contracts, admission saturation (429 + gauges draining
#      to zero), coalescer version atomicity, and the graceful-drain
#      no-acked-write-lost proof (plain and sharded backends) against a
#      live listener, plus the Drain-before-Serve and Drain-racing-Serve
#      regressions. The load harness itself is `bash bench/run.sh
#      --workload serve_mixed`; it is not part of the CI gate.
#   1g. filter tier: runs the prefilter determinism matrix (Parallelism
#      {1,8} x shards {1,4} must reproduce the no-prefilter oracle both
#      with accept-all bounds and at the default derived bounds) and the
#      result-cache protocol suite (hit/miss/bypass, write invalidation,
#      churn) under the race detector
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
#      target (PPM decoder, WAL replay) for a few seconds of random input
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
tier "tier 0: gofmt" check_gofmt
tier "tier 0: go vet" go vet ./...
tier "tier 0: walrus-lint" go run ./cmd/walrus-lint -v ./...

tier "tier 1: race (short)" go test -race -short ./...
tier "tier 1: obs scrape during stress" go test -race -count=1 -run 'TestObsScrapeUnderLoad|TestObsCountDeterminism' .
tier "tier 1: obs exposition validators" go test -count=1 -run 'TestPrometheusOutputValidates|TestValidatePrometheusRejectsMalformed|TestHandlerEndpoints' ./internal/obs
tier "tier 1: snapshot (acquire/release vs publish, leak check)" go test -race -count=1 -run 'TestSnapshot' .
tier "tier 1: shard (determinism matrix, crash recovery, fan-out oracle)" go test -race -count=1 -run 'TestShard' .
tier "tier 1: explain (trace completeness, funnel determinism, schema golden)" go test -race -count=1 -run 'TestTrace|TestExplain' ./...
tier "tier 1: serve (handlers, admission, coalescing, graceful drain)" go test -race -count=1 -run 'TestServe' ./...
tier "tier 1: filter (prefilter determinism matrix, result-cache protocol)" go test -race -count=1 -run 'TestPrefilter|TestQueryCache' ./...

tier "tier 2: full tests" go test ./...
tier "tier 2: benchmark harness tests" bench_tests

if [ "${WALRUS_CI_VULN:-1}" = "1" ]; then
    tier "tier 3: govulncheck (non-fatal)" run_vuln
fi

if [ "${WALRUS_CI_FUZZ:-0}" = "1" ]; then
    tier "tier 4: fuzz smoke (imgio)" go test -fuzz FuzzDecodePPM -fuzztime "${WALRUS_CI_FUZZTIME:-10s}" ./internal/imgio
    tier "tier 4: fuzz smoke (wal)" go test -fuzz FuzzReplayWAL -fuzztime "${WALRUS_CI_FUZZTIME:-10s}" ./internal/wal
fi

echo "CI OK"
