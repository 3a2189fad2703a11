//walrus:lint-hot staged query pipeline: probe, refine fan-out, aggregate, inline scoring
package walrus

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
)

// The query pipeline stages. A query runs as a stage plan over one
// immutable Snapshot — extract, probe, the optional refine tier,
// aggregate, score — assembled by planPhaseA/planScore and driven
// by runStages (plan.go). Each stage takes only the snapshot and the
// previous stage's output, so the whole pipeline is lock-free: the
// catalog slices and the pinned index view cannot change underneath it,
// and the refine fan-out over the worker pool needs no synchronization
// beyond slot-indexed writes. Aggregation and scoring run on the calling
// goroutine, with costs that scale with the hits and the returned
// matches: handing candidates to workers cost more than it saved on the
// measured traffic (DESIGN.md, "Query tail").

// signatureRect builds the index key for a region: its centroid point,
// or its signature bounding box when useBBox is set.
func signatureRect(useBBox bool, r region.Region) rstar.Rect {
	if useBBox {
		rect, err := rstar.NewRect(r.Min, r.Max)
		if err == nil {
			return rect
		}
	}
	return rstar.Point(r.Signature)
}

// probeHit is one index hit: a matching (query region, target region)
// pair and the image the target region belongs to.
type probeHit struct {
	image int
	pair  match.Pair
}

// extractStage decomposes the query image into regions using the
// snapshot's extractor, so extraction and index probes are bound to the
// same version of the configuration.
func (s *Snapshot) extractStage(im *imgio.Image) ([]region.Region, error) {
	qRegions, err := s.core.ext.Extract(im)
	if err != nil {
		return nil, fmt.Errorf("walrus: extracting query regions: %w", err)
	}
	return qRegions, nil
}

// probeStage answers every query region's epsilon envelope in one index
// descent: nodes (pages, on disk) shared by several regions' envelopes are
// read once, and for centroid signatures the exact euclidean test runs
// inside the leaf scan, so only true matches are handed back. Hits land in
// their region's slot in the index's depth-first entry order, which
// follows the tree's shape; aggregateStage orders them, so scores, stats
// and rankings depend only on the set each region retrieves. A nil tc
// (the common case) adds nothing to the probe path.
func (s *Snapshot) probeStage(qRegions []region.Region, p QueryParams, tc *traceCollector) ([][]probeHit, error) {
	// Bounding-box signatures match by box overlap, which the envelope
	// tests exactly.
	exact := !s.core.opts.UseBBox
	probes := make([]rstar.Probe, len(qRegions))
	for qi, qr := range qRegions {
		probes[qi].Box = signatureRect(s.core.opts.UseBBox, qr).Expand(p.Epsilon)
		if exact {
			probes[qi].Center, probes[qi].Eps = qr.Signature, p.Epsilon
		}
	}
	perRegion := make([][]probeHit, len(qRegions))
	indexHits, kept := 0, 0
	visits, err := s.view.Probe(probes, func(qi int, payload int64) {
		indexHits++
		// Validate the hit against the snapshot catalog: on disk the
		// payload is decoded from page bytes, so bound it before indexing
		// refs, and skip refs the snapshot has tombstoned.
		if payload < 0 || int(payload) >= len(s.core.refs) {
			return
		}
		ref := s.core.refs[payload]
		if ref.Local < 0 {
			return
		}
		perRegion[qi] = append(perRegion[qi], probeHit{image: ref.Image, pair: match.Pair{Q: qi, T: ref.Local}})
		kept++
	})
	if tc != nil {
		tc.indexHits, tc.nodeVisits, tc.probeOut = indexHits, visits, kept
	}
	return perRegion, err
}

// refineStage is the refined matching phase of Section 5.5: candidate
// pairs are re-verified against the finer signatures when both sides
// carry one, filtering each region's hit list in place. Every task
// checks the deadline so an expired context stops the refinement
// fan-out.
func (s *Snapshot) refineStage(ctx context.Context, qRegions []region.Region, perRegion [][]probeHit, p QueryParams, workers int, tc *traceCollector) error {
	if !p.Refine {
		return nil
	}
	return parallel.ForErr(len(perRegion), workers, func(qi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tc != nil {
			// Record the pass-through count up front so regions without a
			// fine signature (refined nowhere below) still fill their slot.
			tc.refineOut[qi] = len(perRegion[qi])
		}
		qr := qRegions[qi]
		if qr.Fine == nil {
			return nil
		}
		bound := p.RefineEpsilon
		if bound == 0 {
			// Scale epsilon by sqrt(fineDim/coarseDim), keeping the
			// per-dimension tolerance of the coarse check.
			bound = p.Epsilon * math.Sqrt(float64(len(qr.Fine))/float64(len(qr.Signature)))
		}
		hits := perRegion[qi]
		n := 0
		for _, h := range hits {
			target := s.core.images[h.image].Regions[h.pair.T]
			if target.Fine != nil && euclid(qr.Fine, target.Fine) > bound {
				continue
			}
			hits[n] = h
			n++
		}
		perRegion[qi] = hits[:n]
		if tc != nil {
			tc.refineOut[qi] = n
		}
		return nil
	})
}

// candidateSet is the aggregate stage's output: the candidate images in
// ascending slot order and their probe pairs in one flat buffer, each
// candidate's run contiguous and in (Q, T) order — images[i]'s pairs are
// pairs[start[i]:start[i+1]].
type candidateSet struct {
	images []int
	start  []int
	pairs  []match.Pair
}

// pairsOf returns candidate i's pairs.
func (c *candidateSet) pairsOf(i int) []match.Pair {
	return c.pairs[c.start[i]:c.start[i+1]]
}

// aggScratch is aggregateStage's per-image working state, pooled across
// queries so a query touches only the slots of the images it hit.
type aggScratch struct {
	// slot holds, per image slot, the image's hit count during the
	// counting pass and its candidate index during the fill. Every slot
	// is zero while the scratch sits in the pool.
	slot []int32
	// touched lists the images hit in first-hit order, then serves as
	// the per-candidate fill cursors.
	touched []int
}

var aggPool = sync.Pool{New: func() any { return new(aggScratch) }}

// aggregateStage merges the per-region hit lists, in query-region order,
// into the per-image pair runs the scorer consumes, counting the total
// regions retrieved. numImages bounds the image slots the hits name.
// Hits are counted per image in a dense slot-indexed array, the images
// hit are sorted, and a second pass lays every hit into its image's run
// of one flat buffer, so the cost is linear in the hits plus a sort of
// the candidates. Each run comes out in (Q, T) order whatever order the
// index emitted the hits in: the one-to-one matchers break ties by pair
// order, and a ranking must not depend on the tree's shape.
func aggregateStage(perRegion [][]probeHit, numImages int) (candidateSet, int) {
	retrieved := 0
	for _, hits := range perRegion {
		retrieved += len(hits)
	}
	sc := aggPool.Get().(*aggScratch)
	if len(sc.slot) < numImages {
		sc.slot = make([]int32, numImages)
	}
	if need := min(retrieved, numImages); cap(sc.touched) < need {
		sc.touched = make([]int, need)
	}
	slot, touched := sc.slot, sc.touched[:cap(sc.touched)]
	n := 0
	for _, hits := range perRegion {
		for _, h := range hits {
			if slot[h.image] == 0 {
				touched[n] = h.image
				n++
			}
			slot[h.image]++
		}
	}
	c := candidateSet{images: make([]int, n), start: make([]int, n+1), pairs: make([]match.Pair, retrieved)}
	copy(c.images, touched[:n])
	slices.Sort(c.images)
	fill := touched[:n]
	for i, img := range c.images {
		fill[i] = c.start[i]
		c.start[i+1] = c.start[i] + int(slot[img])
		slot[img] = int32(i)
	}
	for _, hits := range perRegion {
		for _, h := range hits {
			ci := slot[h.image]
			// Q never decreases along the fill, so ordering T within the
			// current query region's run is an insertion step.
			lo, i := c.start[ci], fill[ci]
			for i > lo && c.pairs[i-1].Q == h.pair.Q && c.pairs[i-1].T > h.pair.T {
				c.pairs[i] = c.pairs[i-1]
				i--
			}
			c.pairs[i] = h.pair
			fill[ci]++
		}
	}
	for _, img := range c.images {
		slot[img] = 0
	}
	aggPool.Put(sc)
	return c, retrieved
}

// scoreStage scores every candidate image on the calling goroutine, in
// ascending slot order, and keeps the matches with similarity >= p.Tau
// that rank in the top p.Limit (all of them when Limit is 0) by
// decreasing similarity, ties by id. The returned slice is sized
// exactly to the kept matches, so it pins no memory of the candidates it
// dropped. The deadline is checked every few candidates.
func (s *Snapshot) scoreStage(ctx context.Context, qRegions []region.Region, qArea int, cands *candidateSet, p QueryParams) ([]Match, error) {
	scoreOpts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	top := newTopK(p.Limit, len(cands.images))
	for i, imgIdx := range cands.images {
		if i%16 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec := &s.core.images[imgIdx]
		pairs := cands.pairsOf(i)
		res, err := match.Score(qRegions, rec.Regions, pairs, qArea, rec.W*rec.H, scoreOpts)
		if err != nil {
			return nil, err
		}
		if res.Similarity < p.Tau {
			continue
		}
		top.offer(Match{ID: rec.ID, Similarity: res.Similarity, Pairs: res.Pairs, MatchingRegions: len(pairs)})
	}
	return top.sorted(), nil
}

// Query runs the staged query pipeline against the snapshot: the same
// semantics as DB.Query, but over this fixed version, so a caller can
// issue several queries against one consistent state while writers
// commit concurrently.
func (s *Snapshot) Query(im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return s.QueryContext(context.Background(), im, p)
}

// QueryContext is Query with a deadline: the context is checked between
// pipeline stages, inside every refine task and every few candidates of
// the score loop, so a request whose deadline expires stops burning
// worker slots mid-pipeline and returns the context's error. The
// snapshot is unaffected — cancellation never tears published state.
func (s *Snapshot) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	start := statsClock()
	if p.Epsilon < 0 {
		return nil, QueryStats{}, fmt.Errorf("walrus: negative epsilon %v", p.Epsilon)
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	qspan := s.beginQuerySpan(ctx)
	es := qspan.Child("query.extract")
	qRegions, err := s.extractStage(im)
	if err != nil {
		failSpans(es, qspan)
		return nil, QueryStats{}, err
	}
	es.End()
	stats := QueryStats{QueryRegions: len(qRegions), ExtractTime: statsSince(start)}
	return s.finishQuery(ctx, qRegions, im.W*im.H, p, start, stats, qspan)
}

// beginQuerySpan opens the live "query" span: a child of the request
// span when the context carries one (the serving layer's root), else a
// fresh root trace on the attached registry, else nil — tracing off, and
// every downstream span call is a nil no-op.
func (s *Snapshot) beginQuerySpan(ctx context.Context) *obs.Span {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		return parent.Child("query")
	}
	if m := s.om.Load(); m != nil {
		return m.reg.StartSpan("query")
	}
	return nil
}

// failSpans ends the still-open spans of a failed query, innermost
// first, marking each with an error attribute so partial traces are
// distinguishable from completed ones.
func failSpans(spans ...*obs.Span) {
	for _, sp := range spans {
		sp.SetAttr("error", 1)
		sp.End()
	}
}

// QueryByID runs the staged pipeline using the stored regions of an
// already-indexed image as the query, skipping extraction entirely: the
// network front-end's "more like this" path. The id is resolved against
// this snapshot's version; ErrUnknownID reports an absent (or removed)
// id.
func (s *Snapshot) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	start := statsClock()
	if p.Epsilon < 0 {
		return nil, QueryStats{}, fmt.Errorf("walrus: negative epsilon %v", p.Epsilon)
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	idx, ok := s.core.byID.get(id)
	if !ok {
		return nil, QueryStats{}, fmt.Errorf("walrus: query image %q: %w", id, ErrUnknownID)
	}
	qspan := s.beginQuerySpan(ctx)
	es := qspan.Child("query.extract")
	rec := s.core.images[idx]
	es.End()
	stats := QueryStats{QueryRegions: len(rec.Regions), ExtractTime: statsSince(start)}
	return s.finishQuery(ctx, rec.Regions, rec.W*rec.H, p, start, stats, qspan)
}

// finishQuery is the shared tail of the pipeline, entered with the query
// regions already in hand (extracted from an image, or read back from
// the catalog for QueryByID). It assembles the stage plan from the
// parameters and the snapshot's configuration and executes it through
// the shared runner, which hangs one child span per stage off the live
// "query" span qspan (nil when tracing is off); an EXPLAIN context
// additionally routes every stage's counts through a traceCollector into
// the context's QueryTrace.
func (s *Snapshot) finishQuery(ctx context.Context, qRegions []region.Region, qArea int, p QueryParams, start time.Time, stats QueryStats, qspan *obs.Span) ([]Match, QueryStats, error) {
	probeStart := statsClock()
	qt := queryTraceFrom(ctx)
	ex := &stageExec{snap: s, qRegions: qRegions, qArea: qArea, p: p, workers: parallel.Workers(p.Parallelism)}
	if qt != nil {
		ex.tc = newTraceCollector(len(qRegions), s.core.version)
	}

	if err := runStages(ctx, planPhaseA(p), ex, qspan, "query.", -1); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	stats.RegionsRetrieved = ex.retrieved
	stats.CandidateImages = len(ex.cands.images)
	stats.ProbeTime = statsSince(probeStart)
	scoreStart := statsClock()

	if err := runStages(ctx, planScore(), ex, qspan, "query.", -1); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	stats.ScoreTime = statsSince(scoreStart)
	stats.Elapsed = statsSince(start)
	if qt != nil {
		qt.fill(qspan, false, p, len(qRegions), []*traceCollector{ex.tc}, stats, len(ex.matches), len(ex.matches), 0)
	}
	s.observeQuery(qspan, stats)
	return ex.matches, stats, nil
}

// QueryScene is DB.QueryScene over this snapshot.
func (s *Snapshot) QueryScene(im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	return s.QuerySceneContext(context.Background(), im, x, y, w, h, p)
}

// QuerySceneContext is QueryScene with a deadline; see QueryContext.
func (s *Snapshot) QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	minW := s.core.opts.Region.MinWindow
	if w < minW || h < minW {
		return nil, QueryStats{}, fmt.Errorf("walrus: scene %dx%d smaller than the minimum window %d", w, h, minW)
	}
	crop, err := imgio.Crop(im, x, y, w, h)
	if err != nil {
		return nil, QueryStats{}, fmt.Errorf("walrus: cropping scene: %w", err)
	}
	// Score by coverage of the scene alone: a target that contains the
	// whole scene should score near 1 however large the target is.
	p.Denominator = match.QueryOnly
	return s.QueryContext(ctx, crop, p)
}

// observeQuery finishes one successful query's observability: the live
// query span gains its funnel attributes and ends (recording into the
// span ring), and the same quantities Query returns in QueryStats are
// re-emitted as counters and phase histograms. The span may outlive the
// registry handle — a request-scoped span keeps recording into the
// serving layer's registry even if SetMetrics detaches the database's.
func (s *Snapshot) observeQuery(qspan *obs.Span, stats QueryStats) {
	qspan.SetAttr("query_regions", int64(stats.QueryRegions))
	qspan.SetAttr("regions_retrieved", int64(stats.RegionsRetrieved))
	qspan.SetAttr("candidates", int64(stats.CandidateImages))
	qspan.End()
	m := s.om.Load()
	if m == nil {
		return
	}
	m.queries.Inc()
	m.queryRegions.Add(uint64(stats.QueryRegions))
	m.regionsRetrieved.Add(uint64(stats.RegionsRetrieved))
	m.candidates.Add(uint64(stats.CandidateImages))
	m.querySeconds.Observe(stats.Elapsed.Seconds())
	m.extractSeconds.Observe(stats.ExtractTime.Seconds())
	m.probeSeconds.Observe(stats.ProbeTime.Seconds())
	m.scoreSeconds.Observe(stats.ScoreTime.Seconds())
}
