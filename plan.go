//walrus:lint-hot query stage runner: drives the per-shard stage fan-outs
package walrus

import (
	"context"
	"time"

	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
)

// The composable query plan. A query does not hand-chain its stages:
// planPhaseA and scorePlan are explicit stage lists, and runStages
// executes them — one runner under the one query front (query.go), so
// every front and the serve layer share the deadline check, the child
// span, and the funnel timing slot of every stage, and a new tier plugs
// in by adding one queryStage to a plan.

// stageExec is the state one plan execution threads between stages: the
// snapshot the stages read, the query inputs, and each stage's output.
// A query runs one exec per pinned shard over the same plan.
type stageExec struct {
	snap     *shardSnapshot
	qRegions []region.Region
	qBits    []uint64 // the query regions' bitmaps, laid out flat
	qArea    int
	p        QueryParams
	// from is the first payload a delta plan scans; a full plan probes
	// the index and ignores it.
	from int
	// tc is the EXPLAIN funnel collector (nil when the query is not
	// explained); the runner files each stage's wall time into it.
	tc *traceCollector

	// Stage outputs, in pipeline order. hits is the probe's pooled flat
	// hit list, which refine filters in place and aggregate consumes and
	// returns to its pool; cands is aggregate's pooled candidate set,
	// which score consumes and returns to its pool.
	hits       *hitBuf
	cands      *candidateSet
	entryTests int // the probe's leaf entry tests
	retrieved  int
	scored     int
	matches    []Match
}

// queryStage is one composable pipeline stage: a plan name (also the
// span suffix and the collector's timing slot) and the stage body. The
// body receives the execution state and its own span; deadline checks,
// span lifecycle and stage timing belong to the runner.
type queryStage struct {
	name string
	run  func(ctx context.Context, ex *stageExec, sp *obs.Span) error
}

// The plans are fixed lists shared by every query, so assembling one
// allocates nothing.
var (
	phaseAPlain  = []queryStage{{name: "probe", run: runProbe}, {name: "aggregate", run: runAggregate}}
	phaseARefine = []queryStage{{name: "probe", run: runProbe}, {name: "refine", run: runRefine}, {name: "aggregate", run: runAggregate}}
	// The delta plans replace the probe with the scan of the payloads
	// added since a cached answer (query.go, deltaStage).
	deltaPlain  = []queryStage{{name: "delta", run: runDelta}, {name: "aggregate", run: runAggregate}}
	deltaRefine = []queryStage{{name: "delta", run: runDelta}, {name: "refine", run: runRefine}, {name: "aggregate", run: runAggregate}}
	// scorePlan is the scoring side of the pipeline, run per shard after
	// phase A so a fleet can fan the two phases out independently.
	scorePlan = []queryStage{{name: "score", run: runScore}}
)

// planPhaseA selects the probe side of the pipeline — everything up to
// the per-image pair sets the scorer consumes: probe (the delta scan of
// a delta run), then the optional refine tier, then aggregate.
func planPhaseA(p QueryParams, delta bool) []queryStage {
	switch {
	case delta && p.Refine:
		return deltaRefine
	case delta:
		return deltaPlain
	case p.Refine:
		return phaseARefine
	}
	return phaseAPlain
}

// runStages executes a plan over one exec. Every stage gets a deadline
// check before it starts, a child span named prefix+name under parent
// (tagged with the shard index when shard >= 0), and — when the query is
// explained — its wall time recorded into the collector slot matching
// its name. A failing stage ends its own span with an error mark; the
// caller owns the parent.
func runStages(ctx context.Context, stages []queryStage, ex *stageExec, parent *obs.Span, prefix string, shard int) error {
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := parent.Child(prefix + st.name)
		if shard >= 0 {
			sp.SetAttr("shard", int64(shard))
		}
		var stageStart time.Time
		if ex.tc != nil {
			stageStart = statsClock()
		}
		if err := st.run(ctx, ex, sp); err != nil {
			failSpans(sp)
			return err
		}
		if ex.tc != nil {
			ex.tc.recordNS(st.name, statsSince(stageStart).Nanoseconds())
		}
		sp.End()
	}
	return nil
}

func runProbe(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	hb, tests, err := ex.snap.probeStage(ex.qRegions, ex.p, ex.tc)
	if err != nil {
		return err
	}
	ex.hits, ex.entryTests = hb, tests
	return nil
}

func runDelta(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	ex.hits = ex.snap.deltaStage(ex.qRegions, ex.from, ex.p, ex.tc)
	sp.SetAttr("payloads", int64(len(ex.snap.core.refs)-ex.from))
	return nil
}

func runRefine(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	hits, err := ex.snap.refineStage(ctx, ex.qRegions, ex.hits.hits, ex.p, parallel.Workers(0), ex.tc)
	ex.hits.hits = hits
	return err
}

func runAggregate(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	core := ex.snap.core
	ex.cands, ex.retrieved = aggregateStage(ex.hits.hits, core.images, core.cols.pop), len(ex.hits.hits)
	hitPool.Put(ex.hits)
	ex.hits = nil
	if ex.tc != nil {
		ex.tc.candidates = len(ex.cands.images)
	}
	sp.SetAttr("regions_retrieved", int64(ex.retrieved))
	sp.SetAttr("candidates", int64(len(ex.cands.images)))
	return nil
}

func runScore(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	matches, scored, err := ex.snap.scoreStage(ctx, ex.qBits, ex.qArea, ex.cands, ex.p)
	candPool.Put(ex.cands)
	ex.cands = nil
	if err != nil {
		return err
	}
	ex.matches, ex.scored = matches, scored
	if ex.tc != nil {
		ex.tc.matches, ex.tc.scored = len(matches), scored
	}
	sp.SetAttr("scored", int64(scored))
	sp.SetAttr("matches", int64(len(matches)))
	return nil
}
