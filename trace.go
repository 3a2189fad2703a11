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
// The accumulator piggybacks the existing stats plumbing: stages write
// per-region counts into preallocated slots (no locks, deterministic at
// every parallelism), and a query that carries no QueryTrace pays only a
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
	// Prefilter is the effective coarse-tier setting: false when the
	// request asked for it but the database indexes bounding boxes, where
	// the tier does not apply.
	Prefilter   bool   `json:"prefilter"`
	Matcher     string `json:"matcher"`
	Parallelism int    `json:"parallelism"`
}

// ExplainStage is one pipeline stage of the candidate funnel. In and Out
// count the items entering and surviving the stage; what an "item" is
// depends on the stage (probes for probe, region hits for refine and
// aggregate, candidate images for score, per-shard matches for merge).
type ExplainStage struct {
	Stage string `json:"stage"`
	In    int    `json:"in"`
	Out   int    `json:"out"`
	// IndexHits and NodesVisited are nonzero only for the probe stage:
	// the leaf entries the index handed to the probe stage — after the
	// in-leaf envelope (and, for centroid signatures without the
	// prefilter tier, exact distance) test, before catalog validation —
	// and the R*-tree nodes visited by the one descent that answered all
	// of the query's regions (0 on the GiST backend, which does not count
	// visits).
	IndexHits    int `json:"index_hits"`
	NodesVisited int `json:"nodes_visited"`
	// DurationNS is the stage's wall time; on a sharded query it is the
	// slowest shard's time for that stage (the critical path), since
	// shards run the stage concurrently.
	DurationNS int64 `json:"duration_ns"`
}

// ExplainShard is one shard's slice of the funnel. A single-store query
// reports exactly one row with Shard 0.
type ExplainShard struct {
	Shard            int    `json:"shard"`
	Version          uint64 `json:"version"`
	IndexHits        int    `json:"index_hits"`
	NodesVisited     int    `json:"nodes_visited"`
	RegionsRetrieved int    `json:"regions_retrieved"`
	CandidateImages  int    `json:"candidate_images"`
	Matches          int    `json:"matches"`
	// ProbeNS covers the shard's probe+refine+aggregate work, ScoreNS
	// its candidate scoring, as measured inside the shard's fan-out task.
	ProbeNS int64 `json:"probe_ns"`
	ScoreNS int64 `json:"score_ns"`
}

// QueryTrace is the stage-by-stage candidate funnel of one query — the
// payload behind /v1/search?explain=1 and walrus-query -explain. All
// counts are deterministic: identical at every shard count and every
// Parallelism setting; only trace id and *_ns timings vary.
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
// staged pipeline runs. The per-region slices are slot-indexed so
// parallel prefilter/refine tasks record without synchronization, exactly
// like the stages' own result slots; the scalar fields are written by
// the single goroutine driving that shard's stages.
type traceCollector struct {
	version      uint64
	indexHits    int   // leaf entries the index's descent handed to the probe stage
	nodeVisits   int   // index nodes that descent visited
	probeOut     int   // hits surviving catalog validation
	prefilterOut []int // per query region: hits surviving the coarse prefilter
	refineOut    []int // per query region: hits surviving refine

	// prefiltered records that the plan ran the coarse tier, so fill
	// knows to emit its funnel row (the effective setting can differ from
	// the requested one on bounding-box databases).
	prefiltered bool

	probeNS, prefilterNS, refineNS, aggregateNS, scoreNS int64
	candidates, matches                                  int
}

func newTraceCollector(nRegions int, version uint64) *traceCollector {
	return &traceCollector{
		version:      version,
		prefilterOut: make([]int, nRegions),
		refineOut:    make([]int, nRegions),
	}
}

// recordNS files one stage's wall time into the collector slot matching
// its plan name; the stage runner calls it after each stage completes.
func (tc *traceCollector) recordNS(stage string, ns int64) {
	switch stage {
	case "probe":
		tc.probeNS = ns
	case "prefilter":
		tc.prefilterNS = ns
	case "refine":
		tc.refineNS = ns
	case "aggregate":
		tc.aggregateNS = ns
	case "score":
		tc.scoreNS = ns
	}
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func maxNS(tcs []*traceCollector, get func(*traceCollector) int64) int64 {
	var m int64
	for _, tc := range tcs {
		if v := get(tc); v > m {
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
		Prefilter:     p.Prefilter,
		Matcher:       p.Matcher.String(),
		Parallelism:   p.Parallelism,
	}
}

// fill assembles the funnel from the per-shard collectors once the
// pipeline has finished. mergedIn is the total per-shard match count
// entering the merge (equal to matches for a single-store query);
// mergeNS is the merge's wall time (0 unsharded).
func (qt *QueryTrace) fill(span *obs.Span, sharded bool, p QueryParams, qRegions int,
	tcs []*traceCollector, stats QueryStats, mergedIn, matches int, mergeNS int64) {
	qt.TraceID = ""
	if span != nil {
		qt.TraceID = obs.FormatTraceID(span.TraceID())
	}
	qt.Sharded = sharded
	qt.QueryRegions = qRegions
	qt.Params = explainParams(p)
	qt.Matches = matches
	qt.ElapsedNS = stats.Elapsed.Nanoseconds()

	prefiltered := len(tcs) > 0 && tcs[0].prefiltered
	qt.Params.Prefilter = prefiltered

	probeHits, prefilterKept, refineKept := 0, 0, 0
	probeIndexHits, probeVisits := 0, 0
	qt.Shards = make([]ExplainShard, len(tcs))
	for i, tc := range tcs {
		shardKept := tc.probeOut
		probeHits += shardKept
		if prefiltered {
			shardKept = sumInts(tc.prefilterOut)
			prefilterKept += shardKept
		}
		if p.Refine {
			shardKept = sumInts(tc.refineOut)
		}
		refineKept += shardKept
		probeIndexHits += tc.indexHits
		probeVisits += tc.nodeVisits
		qt.Shards[i] = ExplainShard{
			Shard:            i,
			Version:          tc.version,
			IndexHits:        tc.indexHits,
			NodesVisited:     tc.nodeVisits,
			RegionsRetrieved: shardKept,
			CandidateImages:  tc.candidates,
			Matches:          tc.matches,
			ProbeNS:          tc.probeNS + tc.prefilterNS + tc.refineNS + tc.aggregateNS,
			ScoreNS:          tc.scoreNS,
		}
	}

	qt.Stages = qt.Stages[:0]
	qt.Stages = append(qt.Stages, ExplainStage{
		Stage: "extract", In: 1, Out: qRegions,
		DurationNS: stats.ExtractTime.Nanoseconds(),
	})
	qt.Stages = append(qt.Stages, ExplainStage{
		Stage: "probe", In: qRegions * len(tcs), Out: probeHits,
		IndexHits: probeIndexHits, NodesVisited: probeVisits,
		DurationNS: maxNS(tcs, func(tc *traceCollector) int64 { return tc.probeNS }),
	})
	flow := probeHits
	if prefiltered {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "prefilter", In: flow, Out: prefilterKept,
			DurationNS: maxNS(tcs, func(tc *traceCollector) int64 { return tc.prefilterNS }),
		})
		flow = prefilterKept
	}
	if p.Refine {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "refine", In: flow, Out: refineKept,
			DurationNS: maxNS(tcs, func(tc *traceCollector) int64 { return tc.refineNS }),
		})
		flow = refineKept
	}
	qt.Stages = append(qt.Stages, ExplainStage{
		Stage: "aggregate", In: flow, Out: stats.CandidateImages,
		DurationNS: maxNS(tcs, func(tc *traceCollector) int64 { return tc.aggregateNS }),
	})
	qt.Stages = append(qt.Stages, ExplainStage{
		Stage: "score", In: stats.CandidateImages, Out: mergedIn,
		DurationNS: maxNS(tcs, func(tc *traceCollector) int64 { return tc.scoreNS }),
	})
	if sharded {
		qt.Stages = append(qt.Stages, ExplainStage{
			Stage: "merge", In: mergedIn, Out: matches, DurationNS: mergeNS,
		})
	}
}

// noteCacheMiss prepends the "cache" funnel row of a query that went
// through an enabled result cache and missed: one lookup entered the
// cache and one query proceeded into the pipeline. Called by the caching
// wrapper after the underlying query filled the trace.
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
