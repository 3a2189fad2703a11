//walrus:lint-hot staged query pipeline: probe/refine/score fan-outs
package walrus

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/wbiis"
)

// The query pipeline stages. A query runs as a stage plan over one
// immutable Snapshot — extract, probe, the optional prefilter and refine
// tiers, aggregate, score — assembled by planPhaseA/planScore and driven
// by runStages (plan.go). Each stage takes only the snapshot and the
// previous stage's output, so the whole pipeline is lock-free: the
// catalog slices and the pinned index view cannot change underneath it,
// and the per-stage fan-out over the worker pool needs no
// synchronization beyond slot-indexed writes.

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
// pair, the image the target region belongs to, and the index payload
// locating the region's binary signature in the snapshot's bsigs slice.
type probeHit struct {
	image   int
	payload int64
	pair    match.Pair
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
// their region's slot in the index's depth-first entry order — the order
// each region's own search would yield — which keeps pairsByImage, and
// therefore scores, stats and rankings, those of a region-by-region probe.
// A nil tc (the common case) adds nothing to the probe path.
func (s *Snapshot) probeStage(qRegions []region.Region, p QueryParams, tc *traceCollector) ([][]probeHit, error) {
	// Bounding-box signatures match by box overlap, which the envelope
	// tests exactly. When the prefilter tier is planned the exact distance
	// check is deferred to it: the coarse Hamming/variance tests run first
	// and the euclidean distance is computed only for survivors.
	exact := !s.core.opts.UseBBox && !prefilterEnabled(p, s.core.opts)
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
		// Validate the hit against the snapshot catalog. The pinned
		// R*-tree view never yields out-of-version entries, but the GiST
		// view probes the live tree: skip refs the snapshot does not know
		// (inserted later) or has tombstoned (removed later).
		if payload < 0 || int(payload) >= len(s.core.refs) {
			return
		}
		ref := s.core.refs[payload]
		if ref.Local < 0 {
			return
		}
		perRegion[qi] = append(perRegion[qi], probeHit{image: ref.Image, payload: payload, pair: match.Pair{Q: qi, T: ref.Local}})
		kept++
	})
	if tc != nil {
		tc.indexHits, tc.nodeVisits, tc.probeOut = indexHits, visits, kept
	}
	return perRegion, err
}

// prefilterStage is the coarse-to-fine rejection tier between probe and
// refine: each hit is screened by a popcount Hamming test over the
// precomputed binary signatures (with a bound no true epsilon-match can
// exceed — see hammingBound), then by the WBIIS variance acceptance test
// paired with the conservative σ guard (sigmaBound), and only survivors
// pay the exact euclidean check the probe stage deferred. Both coarse
// tests are conservative at their default settings, so results match the
// unfiltered pipeline exactly; PrefilterHamming can trade that guarantee
// for a harsher cut. Hit lists are filtered in place, fanned and
// slot-indexed like every other stage.
func (s *Snapshot) prefilterStage(ctx context.Context, qRegions []region.Region, perRegion [][]probeHit, p QueryParams, workers int, tc *traceCollector) error {
	dim := s.core.opts.Region.Dim()
	hBound := p.PrefilterHamming
	if hBound <= 0 {
		hBound = hammingBound(dim, p.Epsilon)
	}
	beta := p.PrefilterBeta
	if beta <= 0 {
		beta = wbiis.DefaultOptions().Beta
	}
	sBound := sigmaBound(dim, p.Epsilon)
	qsigs := make([]binSig, len(qRegions))
	if tc != nil {
		tc.prefiltered = true
	}
	return parallel.ForErr(len(perRegion), workers, func(qi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		qr := qRegions[qi]
		qsigs[qi] = makeBinSig(qr.Signature)
		qb := &qsigs[qi]
		hits := perRegion[qi]
		n := 0
		for _, h := range hits {
			tb := &s.core.bsigs[h.payload]
			if qb.hamming(tb) > hBound {
				continue
			}
			if !wbiis.Acceptance(qb.Sigma, tb.Sigma, beta) && math.Abs(qb.Sigma-tb.Sigma) > sBound {
				continue
			}
			target := s.core.images[h.image].Regions[h.pair.T]
			if euclid(qr.Signature, target.Signature) > p.Epsilon {
				continue
			}
			hits[n] = h
			n++
		}
		perRegion[qi] = hits[:n]
		if tc != nil {
			tc.prefilterOut[qi] = n
		}
		return nil
	})
}

// refineStage is the refined matching phase of Section 5.5: candidate
// pairs are re-verified against the finer signatures when both sides
// carry one, filtering each region's hit list in place. Like the probe
// and score stages, every task checks the deadline so an expired
// context stops the refinement fan-out.
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

// aggregateStage merges the per-region hit lists in query-region order
// into the per-image pair sets the scorer consumes, counting the total
// regions retrieved. The pair sets are carved out of one flat buffer
// sized by a counting pass — a single allocation however many candidate
// images the probes surfaced.
func aggregateStage(perRegion [][]probeHit) (map[int][]match.Pair, int) {
	counts := make(map[int]int)
	retrieved := 0
	for _, hits := range perRegion {
		for _, h := range hits {
			counts[h.image]++
		}
		retrieved += len(hits)
	}
	buf := make([]match.Pair, retrieved)
	next := 0
	pairsByImage := make(map[int][]match.Pair, len(counts))
	fill := make(map[int]int, len(counts))
	for _, hits := range perRegion {
		for _, h := range hits {
			s, ok := pairsByImage[h.image]
			if !ok {
				c := counts[h.image]
				s = buf[next : next+c]
				next += c
				pairsByImage[h.image] = s
			}
			s[fill[h.image]] = h.pair
			fill[h.image]++
		}
	}
	return pairsByImage, retrieved
}

// scoreStage scores every candidate image, fanning the (independent,
// read-only) match computations across the worker pool. Candidates are
// scored into fixed slots ordered by image index, so the result set is
// schedule-independent. It returns matches with similarity >= p.Tau
// sorted by decreasing similarity, capped at p.Limit.
func (s *Snapshot) scoreStage(ctx context.Context, qRegions []region.Region, qArea int, pairsByImage map[int][]match.Pair, p QueryParams, workers int) ([]Match, error) {
	candidates := make([]int, len(pairsByImage))
	n := 0
	for imgIdx := range pairsByImage {
		candidates[n] = imgIdx
		n++
	}
	sort.Ints(candidates)
	scoreOpts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	scored := make([]match.Result, len(candidates))
	err := parallel.ForErr(len(candidates), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		imgIdx := candidates[i]
		rec := s.core.images[imgIdx]
		res, err := match.Score(qRegions, rec.Regions, pairsByImage[imgIdx], qArea, rec.W*rec.H, scoreOpts)
		if err != nil {
			return err
		}
		scored[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	matches := make([]Match, len(candidates))
	kept := 0
	for i, imgIdx := range candidates {
		if scored[i].Similarity < p.Tau {
			continue
		}
		rec := s.core.images[imgIdx]
		matches[kept] = Match{
			ID:              rec.ID,
			Similarity:      scored[i].Similarity,
			Pairs:           scored[i].Pairs,
			MatchingRegions: len(pairsByImage[imgIdx]),
		}
		kept++
	}
	matches = matches[:kept]
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Similarity != matches[j].Similarity {
			return matches[i].Similarity > matches[j].Similarity
		}
		return matches[i].ID < matches[j].ID
	})
	if p.Limit > 0 && len(matches) > p.Limit {
		matches = matches[:p.Limit]
	}
	return matches, nil
}

// Query runs the staged query pipeline against the snapshot: the same
// semantics as DB.Query, but over this fixed version, so a caller can
// issue several queries against one consistent state while writers
// commit concurrently.
func (s *Snapshot) Query(im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return s.QueryContext(context.Background(), im, p)
}

// QueryContext is Query with a deadline: the context is checked between
// pipeline stages and inside every per-region probe and per-candidate
// score task, so a request whose deadline expires stops burning worker
// slots mid-pipeline and returns the context's error. The snapshot is
// unaffected — cancellation never tears published state.
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
	idx, ok := s.core.byID[id]
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

	if err := runStages(ctx, planPhaseA(p, s.core.opts), ex, qspan, "query.", -1); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	stats.RegionsRetrieved = ex.retrieved
	stats.CandidateImages = len(ex.pairsByImage)
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
