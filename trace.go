package walrus

import (
	"context"

	"walrus/internal/obs"
)

// Query EXPLAIN. A caller that wants to see the candidate funnel of one
// query — how many regions each pipeline stage received and passed on,
// per shard and in total — attaches a QueryTrace to the context with
// WithQueryTrace and reads it back after the query returns:
//
//	ctx, qt := walrus.WithQueryTrace(ctx)
//	matches, _, err := db.QueryContext(ctx, img, params)
//	// qt now holds the stage-by-stage funnel
//
// The accumulator piggybacks the existing stats plumbing: each shard's
// stages write their counts into that shard's collector (no locks,
// deterministic at every parallelism), and a query that carries no QueryTrace pays only a
// context lookup at entry — the stages themselves never branch on it in
// their inner loops. Funnel counts are schedule-independent; only the
// *_ns timing fields vary run to run.

// queryTraceKey is the context key carrying the *QueryTrace accumulator.
type queryTraceKey struct{}

// WithQueryTrace returns a context that asks the next query executed
// under it to record its candidate funnel into the returned QueryTrace.
// One QueryTrace describes one query: run each explained query under its
// own WithQueryTrace context.
func WithQueryTrace(ctx context.Context) (context.Context, *QueryTrace) {
	qt := &QueryTrace{}
	return context.WithValue(ctx, queryTraceKey{}, qt), qt
}

// queryTraceFrom returns the QueryTrace accumulator carried by ctx, or
// nil when the query is not being explained.
func queryTraceFrom(ctx context.Context) *QueryTrace {
	qt, _ := ctx.Value(queryTraceKey{}).(*QueryTrace)
	return qt
}

// ExplainParams echoes the query parameters the explained query ran
// with, resolved to their effective values.
type ExplainParams struct {
	Epsilon       float64 `json:"epsilon"`
	RefineEpsilon float64 `json:"refine_epsilon"`
	Tau           float64 `json:"tau"`
	Limit         int     `json:"limit"`
	Refine        bool    `json:"refine"`
	Matcher       string  `json:"matcher"`
}

// ExplainStage is one pipeline stage of the candidate funnel. In and Out
// count the items entering and surviving the stage; what an "item" is
// depends on the stage (probes for probe, payloads scanned in and region
// hits out for delta, region hits for refine and aggregate, candidate
// images for score, matches for merge: per-shard ones, and a delta's
// cached ones).
type ExplainStage struct {
	Stage string `json:"stage"`
	In    int    `json:"in"`
	Out   int    `json:"out"`
	// IndexHits, NodesVisited and EntryTests are nonzero only for the
	// probe stage: the leaf entries the index handed to the probe stage —
	// after the in-leaf envelope (and, for centroid signatures, exact
	// distance) test, before catalog validation — the R*-tree nodes
	// visited by the one descent that answered all of the query's
	// regions, and that descent's leaf entry tests: over the leaves it
	// scanned, each leaf's entries times the query regions whose probes
	// reached it. The delta stage of a cached answer brought forward
	// reports its distance tests as EntryTests: the live payloads it
	// scanned times the query regions.
	IndexHits    int `json:"index_hits"`
	NodesVisited int `json:"nodes_visited"`
	EntryTests   int `json:"entry_tests"`
	// Scored is nonzero only for the score stage: the candidates scored,
	// of the In it received. The rest were skipped unscored, their
	// coverage bound showing they could not pass τ or enter the top
	// Limit.
	Scored int `json:"scored"`
	// DurationNS is the stage's wall time; on a sharded query it is the
	// slowest shard's time for that stage (the critical path), since
	// shards run the stage concurrently.
	DurationNS int64 `json:"duration_ns"`
}

// ExplainShard is one shard's slice of the funnel. A one-shard query
// reports exactly one row with Shard 0.
type ExplainShard struct {
	Shard            int    `json:"shard"`
	Version          uint64 `json:"version"`
	IndexHits        int    `json:"index_hits"`
	NodesVisited     int    `json:"nodes_visited"`
	EntryTests       int    `json:"entry_tests"`
	RegionsRetrieved int    `json:"regions_retrieved"`
	CandidateImages  int    `json:"candidate_images"`
	Scored           int    `json:"scored"`
	Matches          int    `json:"matches"`
	// ProbeNS covers the shard's probe (or delta)+refine+aggregate work, ScoreNS
	// its candidate scoring, as measured inside the shard's fan-out task.
	ProbeNS int64 `json:"probe_ns"`
	ScoreNS int64 `json:"score_ns"`
}

// QueryTrace is the stage-by-stage candidate funnel of one query — the
// payload behind /v1/search?explain=1 and walrus-query -explain. All
// counts are deterministic: identical at every shard count and every
// GOMAXPROCS; only trace id and *_ns timings vary.
type QueryTrace struct {
	// TraceID links the funnel to the live span tree recorded in the obs
	// span ring ("" when no registry/span was active for the query).
	TraceID string `json:"trace_id,omitempty"`
	// Sharded reports whether the query fanned out across shards.
	Sharded      bool           `json:"sharded"`
	QueryRegions int            `json:"query_regions"`
	Params       ExplainParams  `json:"params"`
	Stages       []ExplainStage `json:"stages"`
	Shards       []ExplainShard `json:"shards"`
	Matches      int            `json:"matches"`
	ElapsedNS    int64          `json:"elapsed_ns"`
}

// traceCollector accumulates one shard's share of the funnel while the
// staged pipeline runs. Its fields are written by the single goroutine
// driving that shard's stages, after any fan-out within a stage.
type traceCollector struct {
	version    uint64
	indexHits  int // leaf entries the index's descent handed to the probe stage
	nodeVisits int // index nodes that descent visited
	entryTests int // leaf entry tests of that descent: entries × active probes per leaf
	probeOut   int // hits surviving catalog validation
	refineOut  int // hits surviving refine
	// deltaIn is the payloads a delta run's scan covered; it then files
	// its distance tests under entryTests and its hits under probeOut.
	deltaIn int

	probeNS, refineNS, aggregateNS, scoreNS int64
	candidates, scored, matches             int
}

func newTraceCollector(version uint64) *traceCollector {
	return &traceCollector{version: version}
}

// recordNS files one stage's wall time into the collector slot matching
// its plan name; the stage runner calls it after each stage completes.
func (tc *traceCollector) recordNS(stage string, ns int64) {
	switch stage {
	case "probe", "delta":
		tc.probeNS = ns
	case "refine":
		tc.refineNS = ns
	case "aggregate":
		tc.aggregateNS = ns
	case "score":
		tc.scoreNS = ns
	}
}

func maxNS(execs []stageExec, get func(*traceCollector) int64) int64 {
	var m int64
	for i := range execs {
		if v := get(execs[i].tc); v > m {
			m = v
		}
	}
	return m
}

// explainParams resolves p into the echoed parameter block.
func explainParams(p QueryParams) ExplainParams {
	return ExplainParams{
		Epsilon:       p.Epsilon,
		RefineEpsilon: p.RefineEpsilon,
		Tau:           p.Tau,
		Limit:         p.Limit,
		Refine:        p.Refine,
		Matcher:       p.Matcher.String(),
	}
}

// fill assembles the funnel from the per-shard collectors of execs once
// the pipeline has finished. mergedIn is the total match count entering
// the merge (equal to matches for a one-shard full run); mergeNS is the
// merge's wall time (0 when nothing was merged). A delta run has a delta
// row where a full run has its extract and probe rows, and always a
// merge row: its cached matches enter the merge.
func (qt *QueryTrace) fill(span *obs.Span, sharded, delta bool, p QueryParams, qRegions int,
	execs []stageExec, stats QueryStats, mergedIn, matches int, mergeNS int64) {
	qt.TraceID = ""
	if span != nil {
		qt.TraceID = obs.FormatTraceID(span.TraceID())
	}
	qt.Sharded = sharded
	qt.QueryRegions = qRegions
	qt.Params = explainParams(p)
	qt.Matches = matches
	qt.ElapsedNS = stats.Elapsed.Nanoseconds()

	probeHits, refineKept, scored := 0, 0, 0
	probeIndexHits, probeVisits, probeTests, deltaIn := 0, 0, 0, 0
	qt.Shards = make([]ExplainShard, len(execs))
	for i := range execs {
		tc := execs[i].tc
		shardKept := tc.probeOut
		probeHits += shardKept
		if p.Refine {
			shardKept = tc.refineOut
		}
		refineKept += shardKept
		probeIndexHits += tc.indexHits
		probeVisits += tc.nodeVisits
		probeTests += tc.entryTests
		deltaIn += tc.deltaIn
		scored += tc.scored
		qt.Shards[i] = ExplainShard{
			Shard:            i,
			Version:          tc.version,
			IndexHits:        tc.indexHits,
			NodesVisited:     tc.nodeVisits,
			EntryTests:       tc.entryTests,
			RegionsRetrieved: shardKept,
			CandidateImages:  tc.candidates,
			Scored:           tc.scored,
			Matches:          tc.matches,
			ProbeNS:          tc.probeNS + tc.refineNS + tc.aggregateNS,
			ScoreNS:          tc.scoreNS,
		}
	}

	qt.Stages = qt.Stages[:0]
	probeNS := maxNS(execs, func(tc *traceCollector) int64 { return tc.probeNS })
	if delta {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "delta", In: deltaIn, Out: probeHits, EntryTests: probeTests, DurationNS: probeNS,
		})
	} else {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "extract", In: 1, Out: qRegions,
			DurationNS: stats.ExtractTime.Nanoseconds(),
		})
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "probe", In: qRegions * len(execs), Out: probeHits,
			IndexHits: probeIndexHits, NodesVisited: probeVisits, EntryTests: probeTests,
			DurationNS: probeNS,
		})
	}
	flow := probeHits
	if p.Refine {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "refine", In: flow, Out: refineKept,
			DurationNS: maxNS(execs, func(tc *traceCollector) int64 { return tc.refineNS }),
		})
		flow = refineKept
	}
	qt.Stages = append(qt.Stages, ExplainStage{
		Stage: "aggregate", In: flow, Out: stats.CandidateImages,
		DurationNS: maxNS(execs, func(tc *traceCollector) int64 { return tc.aggregateNS }),
	})
	qt.Stages = append(qt.Stages, ExplainStage{
		Stage: "score", In: stats.CandidateImages, Out: mergedIn, Scored: scored,
		DurationNS: maxNS(execs, func(tc *traceCollector) int64 { return tc.scoreNS }),
	})
	if sharded || delta {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "merge", In: mergedIn, Out: matches, DurationNS: mergeNS,
		})
	}
}

// noteCacheMiss prepends the "cache" funnel row of a query that went
// through an enabled result cache and missed, or brought its answer
// forward by a delta: one lookup entered the cache and one query
// proceeded into the pipeline. Called by the caching wrapper after the
// underlying query filled the trace.
func (qt *QueryTrace) noteCacheMiss(ns int64) {
	qt.Stages = append([]ExplainStage{{Stage: "cache", In: 1, Out: 1, DurationNS: ns}}, qt.Stages...)
}

// fillCacheHit describes a query answered entirely from the result
// cache: a single "cache" row with Out 0 — nothing reached the pipeline
// — carrying the pinned version's funnel totals from the cached stats.
// There are no shard rows and no trace id: no span tree was recorded.
func (qt *QueryTrace) fillCacheHit(p QueryParams, sharded bool, stats QueryStats, matches int, ns int64) {
	qt.TraceID = ""
	qt.Sharded = sharded
	qt.QueryRegions = stats.QueryRegions
	qt.Params = explainParams(p)
	qt.Matches = matches
	qt.ElapsedNS = stats.Elapsed.Nanoseconds()
	qt.Stages = append(qt.Stages[:0], ExplainStage{Stage: "cache", In: 1, Out: 0, DurationNS: ns})
	qt.Shards = qt.Shards[:0]
}
