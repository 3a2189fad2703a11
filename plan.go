//walrus:lint-hot query stage runner: drives the per-shard stage fan-outs
package walrus

import (
	"context"
	"time"

	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/region"
)

// The composable query plan. A query no longer hand-chains its stages:
// planPhaseA and planScore assemble an explicit stage list from the
// query parameters and the snapshot's configuration, and runStages
// executes it — one runner shared by Snapshot and ShardedSnapshot (and
// therefore the serve layer), providing the deadline check, the child
// span, and the funnel timing slot for every stage, so a new tier plugs
// in by adding one queryStage to the plan instead of rethreading
// query.go, shard.go and trace.go by hand.

// stageExec is the state one plan execution threads between stages: the
// snapshot the stages read, the query inputs, and each stage's output.
// A sharded query runs one exec per shard over the same plan.
type stageExec struct {
	snap     *Snapshot
	qRegions []region.Region
	qArea    int
	p        QueryParams
	workers  int
	// tc is the EXPLAIN funnel collector (nil when the query is not
	// explained); the runner files each stage's wall time into it.
	tc *traceCollector

	// Stage outputs, in pipeline order.
	perRegion    [][]probeHit
	pairsByImage map[int][]match.Pair
	retrieved    int
	matches      []Match
}

// queryStage is one composable pipeline stage: a plan name (also the
// span suffix and the collector's timing slot) and the stage body. The
// body receives the execution state and its own span; deadline checks,
// span lifecycle and stage timing belong to the runner.
type queryStage struct {
	name string
	run  func(ctx context.Context, ex *stageExec, sp *obs.Span) error
}

// prefilterEnabled resolves the effective prefilter setting: the coarse
// tier applies only to centroid-signature databases, whose envelope test
// is a euclidean bound the binary signatures conservatively approximate.
// Bounding-box databases match by box overlap, which the probe already
// tests exactly.
func prefilterEnabled(p QueryParams, opts Options) bool {
	return p.Prefilter && !opts.UseBBox
}

// planPhaseA assembles the probe side of the pipeline — everything up to
// the per-image pair sets the scorer consumes: probe, then the optional
// coarse prefilter and refine tiers, then aggregate.
func planPhaseA(p QueryParams, opts Options) []queryStage {
	stages := make([]queryStage, 0, 4)
	stages = append(stages, queryStage{name: "probe", run: runProbe})
	if prefilterEnabled(p, opts) {
		stages = append(stages, queryStage{name: "prefilter", run: runPrefilter})
	}
	if p.Refine {
		stages = append(stages, queryStage{name: "refine", run: runRefine})
	}
	stages = append(stages, queryStage{name: "aggregate", run: runAggregate})
	return stages
}

// planScore is the scoring side of the pipeline, run per shard after
// phase A so a sharded query can fan the two phases out independently.
func planScore() []queryStage {
	return []queryStage{{name: "score", run: runScore}}
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
	perRegion, err := ex.snap.probeStage(ex.qRegions, ex.p, ex.tc)
	if err != nil {
		return err
	}
	ex.perRegion = perRegion
	return nil
}

func runPrefilter(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	return ex.snap.prefilterStage(ctx, ex.qRegions, ex.perRegion, ex.p, ex.workers, ex.tc)
}

func runRefine(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	return ex.snap.refineStage(ctx, ex.qRegions, ex.perRegion, ex.p, ex.workers, ex.tc)
}

func runAggregate(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	ex.pairsByImage, ex.retrieved = aggregateStage(ex.perRegion)
	if ex.tc != nil {
		ex.tc.candidates = len(ex.pairsByImage)
	}
	sp.SetAttr("regions_retrieved", int64(ex.retrieved))
	sp.SetAttr("candidates", int64(len(ex.pairsByImage)))
	return nil
}

func runScore(ctx context.Context, ex *stageExec, sp *obs.Span) error {
	matches, err := ex.snap.scoreStage(ctx, ex.qRegions, ex.qArea, ex.pairsByImage, ex.p, ex.workers)
	if err != nil {
		return err
	}
	ex.matches = matches
	if ex.tc != nil {
		ex.tc.matches = len(matches)
	}
	sp.SetAttr("matches", int64(len(matches)))
	return nil
}
