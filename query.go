//walrus:lint-hot staged query pipeline: probe, refine fan-out, aggregate, inline scoring
package walrus

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
)

// The query pipeline: the stages and the one query front that runs them.
// A query runs as a stage plan over immutable shard snapshots — extract,
// probe, the optional refine tier, aggregate, score — chosen by
// planPhaseA and scorePlan and driven by runStages (plan.go) from
// queryFront, which every public Query* method calls into. Each stage
// takes only the snapshot and the previous stage's output, so the whole
// pipeline is lock-free: the catalog slices and the pinned index view
// cannot change underneath it, and the refine fan-out over the worker
// pool needs no synchronization beyond slot-indexed writes. Aggregation
// and scoring run on the calling goroutine, with costs that scale with
// the hits and the returned matches: handing candidates to workers cost
// more than it saved on the measured traffic (DESIGN.md, "Query tail").

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
func (s *shardSnapshot) extractStage(im *imgio.Image) ([]region.Region, error) {
	qRegions, err := s.core.ext.Extract(im)
	if err != nil {
		return nil, fmt.Errorf("walrus: extracting query regions: %w", err)
	}
	return qRegions, nil
}

// probeStage answers every query region's probe in one index descent:
// nodes (pages, on disk) shared by several regions' probes are read once.
// A centroid signature probes with the ε-ball alone — the exact euclid
// test, which prunes inner nodes by MINDIST and decides at the leaves, so
// only true matches are handed back; an ε-cube beside it would add
// nothing but a rounding error at its edges (DESIGN.md, "Pruning by the
// ball"). A bounding-box signature probes with its ε-envelope, since
// bounding boxes match by box overlap. Each region's hits come back in
// the index's depth-first entry order, which follows the tree's shape;
// aggregateStage orders them, so scores, stats and rankings depend only
// on the set each region retrieves. A nil tc (the common case) adds
// nothing to the probe path.
func (s *shardSnapshot) probeStage(qRegions []region.Region, p QueryParams, tc *traceCollector) ([][]probeHit, error) {
	probes := make([]rstar.Probe, len(qRegions))
	for qi, qr := range qRegions {
		if s.core.opts.UseBBox {
			probes[qi].Box = signatureRect(true, qr).Expand(p.Epsilon)
		} else {
			probes[qi].Center, probes[qi].Eps = qr.Signature, p.Epsilon
		}
	}
	hb := hitPool.Get().(*hitBufs)
	hits := hb.hits[:0]
	indexHits := 0
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
		hits = append(hits, probeHit{image: ref.Image, pair: match.Pair{Q: qi, T: ref.Local}})
	})
	perRegion := hb.byRegion(hits, len(qRegions))
	if tc != nil {
		tc.indexHits, tc.nodeVisits, tc.probeOut = indexHits, visits, len(hits)
	}
	hb.hits = hits
	hitPool.Put(hb)
	return perRegion, err
}

// hitBufs is probeStage's working state, pooled across queries: the
// flat buffer every hit of a descent is appended to, and the per-region
// counts of the pass that files them. Both hold no pointers, so pooled
// buffers keep nothing of a query alive.
type hitBufs struct {
	hits  []probeHit
	count []int
}

var hitPool = sync.Pool{New: func() any { return new(hitBufs) }}

// byRegion files hits, in emission order, into one run per query region
// of one exact-size array: a stable counting pass by query region, so each
// run keeps the order the index emitted. Regions without hits get nil.
func (hb *hitBufs) byRegion(hits []probeHit, regions int) [][]probeHit {
	perRegion := make([][]probeHit, regions)
	if len(hits) == 0 {
		return perRegion
	}
	if cap(hb.count) < regions {
		hb.count = make([]int, regions)
	}
	count := hb.count[:regions]
	clear(count)
	for _, h := range hits {
		count[h.pair.Q]++
	}
	// count[qi] turns from the region's hit count into its fill cursor.
	all, at := make([]probeHit, len(hits)), 0
	for qi, n := range count {
		if n > 0 {
			perRegion[qi] = all[at : at+n : at+n]
		}
		count[qi], at = at, at+n
	}
	for _, h := range hits {
		all[count[h.pair.Q]] = h
		count[h.pair.Q]++
	}
	return perRegion
}

// refineStage is the refined matching phase of Section 5.5: candidate
// pairs are re-verified against the finer signatures when both sides
// carry one, filtering each region's hit list in place. Every task
// checks the deadline so an expired context stops the refinement
// fan-out.
func (s *shardSnapshot) refineStage(ctx context.Context, qRegions []region.Region, perRegion [][]probeHit, p QueryParams, workers int, tc *traceCollector) error {
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
func (s *shardSnapshot) scoreStage(ctx context.Context, qRegions []region.Region, qArea int, cands *candidateSet, p QueryParams) ([]Match, error) {
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

// querySource is what a query runs on: the pixels of a query image, the
// stored regions of an indexed image (id, when im is nil), or a scene —
// a rectangle of a query image, resolved to its crop's pixels before
// anything else.
type querySource struct {
	im         *imgio.Image
	id         string
	scene      bool
	x, y, w, h int
}

// queryFront is the one query front every public Query* method calls
// into. It runs over one pinned snapshot per shard. A one-shard front is
// a single store: its stages run on the caller with query.<stage> spans
// directly under the query span, and its EXPLAIN has no merge row. On
// more shards the front fans out — per-shard spans under the probe and
// score umbrellas, the merge, and a sharded EXPLAIN.
type queryFront struct {
	snaps []shardSnapshot
	// qm receives the query's metrics and roots its span; nil means
	// observability is off.
	qm *queryMetrics
}

// fleet reports whether the front fans out across more than one shard.
func (f queryFront) fleet() bool { return len(f.snaps) > 1 }

// query validates the request, resolves its source — a scene to a pixels
// query on its crop, an id to the stored record on its owning shard — and
// answers it from the result cache c, or from the pipeline when c is nil
// (caching off, and always on an explicit snapshot).
func (f queryFront) query(ctx context.Context, c *queryCache, src querySource, p QueryParams) ([]Match, QueryStats, error) {
	if !(p.Epsilon >= 0) {
		// A NaN radius would keep every region: its ball bound and its box
		// both match everything.
		return nil, QueryStats{}, fmt.Errorf("walrus: epsilon %v is negative or NaN", p.Epsilon)
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	if src.scene {
		minW := f.snaps[0].core.opts.Region.MinWindow
		if src.w < minW || src.h < minW {
			return nil, QueryStats{}, fmt.Errorf("walrus: scene %dx%d smaller than the minimum window %d", src.w, src.h, minW)
		}
		crop, err := imgio.Crop(src.im, src.x, src.y, src.w, src.h)
		if err != nil {
			return nil, QueryStats{}, fmt.Errorf("walrus: cropping scene: %w", err)
		}
		// Score by coverage of the scene alone: a target that contains the
		// whole scene should score near 1 however large the target is.
		src = querySource{im: crop}
		p.Denominator = match.QueryOnly
	}
	var rec *imageRecord
	if src.im == nil {
		owner := f.snaps[shardOf(src.id, len(f.snaps))]
		idx, ok := owner.core.byID.get(src.id)
		if !ok {
			return nil, QueryStats{}, fmt.Errorf("walrus: query image %q: %w", src.id, ErrUnknownID)
		}
		rec = &owner.core.images[idx]
	}
	if c == nil {
		return f.run(ctx, src.im, rec, p)
	}
	return f.cachedQuery(ctx, c, src, rec, p)
}

// run executes the staged pipeline for a resolved query: the query
// regions are extracted from im — once, on shard 0, whose extractor
// every shard shares — or read from the stored record rec; every pinned
// shard then runs the probe phase and the score phase through the shared
// runner, each with its own stageExec, and a fleet merges the per-shard
// rankings. An EXPLAIN context gets one traceCollector per shard, folded
// into the funnel at the end.
func (f queryFront) run(ctx context.Context, im *imgio.Image, rec *imageRecord, p QueryParams) ([]Match, QueryStats, error) {
	start := statsClock()
	qspan := f.beginQuerySpan(ctx)
	es := qspan.Child("query.extract")
	var qRegions []region.Region
	var qArea int
	if rec != nil {
		qRegions, qArea = rec.Regions, rec.W*rec.H
	} else {
		var err error
		if qRegions, err = f.snaps[0].extractStage(im); err != nil {
			failSpans(es, qspan)
			return nil, QueryStats{}, err
		}
		qArea = im.W * im.H
	}
	es.End()
	stats := QueryStats{QueryRegions: len(qRegions), ExtractTime: statsSince(start)}

	probeStart := statsClock()
	workers := parallel.Workers(p.Parallelism)
	qt := queryTraceFrom(ctx)
	execs := make([]stageExec, len(f.snaps))
	for i := range f.snaps {
		sn := &f.snaps[i]
		execs[i] = stageExec{snap: sn, qRegions: qRegions, qArea: qArea, p: p, workers: workers}
		if qt != nil {
			execs[i].tc = newTraceCollector(len(qRegions), sn.core.version)
		}
	}
	if err := f.runPhase(ctx, planPhaseA(p), execs, qspan, "query.probe", workers); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	for i := range execs {
		stats.RegionsRetrieved += execs[i].retrieved
		stats.CandidateImages += len(execs[i].cands.images)
	}
	stats.ProbeTime = statsSince(probeStart)
	scoreStart := statsClock()

	// Every shard scores with the fleet Limit. The cut is exact: ids are
	// disjoint across shards and (similarity desc, id asc) is a strict
	// order, so a match in the fleet's top Limit has at most Limit-1
	// matches ranked above it on the whole fleet, hence on its own shard,
	// and is in that shard's top Limit too.
	if err := f.runPhase(ctx, scorePlan, execs, qspan, "query.score", workers); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	matches, mergedIn, mergeNS := execs[0].matches, len(execs[0].matches), int64(0)
	if f.fleet() {
		mergeStart := statsClock()
		matches, mergedIn = mergeMatches(execs, p.Limit)
		mergeNS = statsSince(mergeStart).Nanoseconds()
	}
	stats.ScoreTime = statsSince(scoreStart)
	stats.Elapsed = statsSince(start)
	if qt != nil {
		qt.fill(qspan, f.fleet(), p, len(qRegions), execs, stats, mergedIn, len(matches), mergeNS)
	}
	f.observeQuery(qspan, stats)
	return matches, stats, nil
}

// runPhase runs one plan phase on every pinned shard. A single store runs
// it on the caller, its stage spans (query.<stage>) directly under the
// query span; a fleet fans the shards out under one umbrella span, each
// stage a query.shard.<stage> span tagged with its shard.
func (f queryFront) runPhase(ctx context.Context, plan []queryStage, execs []stageExec, qspan *obs.Span, umbrella string, workers int) error {
	if !f.fleet() {
		return runStages(ctx, plan, &execs[0], qspan, "query.", -1)
	}
	sp := qspan.Child(umbrella)
	err := parallel.ForErr(len(execs), workers, func(i int) error {
		return runStages(ctx, plan, &execs[i], sp, "query.shard.", i)
	})
	if err != nil {
		failSpans(sp)
		return err
	}
	sp.End()
	return nil
}

// mergeMatches merges the per-shard rankings, each already ordered by
// the shared (similarity desc, id asc) key, into the fleet ranking cut at
// limit (0 = unlimited), in a slice sized exactly to it, and reports how
// many per-shard matches entered the merge. Ids are disjoint across
// shards, so the merge reproduces exactly the ranking a single shard
// would have produced over the union.
func mergeMatches(execs []stageExec, limit int) ([]Match, int) {
	in := 0
	for i := range execs {
		in += len(execs[i].matches)
	}
	total := in
	if limit > 0 && limit < total {
		total = limit
	}
	merged := make([]Match, total)
	next := make([]int, len(execs))
	for out := range merged {
		best := -1
		for i := range execs {
			m := execs[i].matches
			if next[i] == len(m) {
				continue
			}
			if best < 0 || compareMatches(m[next[i]], execs[best].matches[next[best]]) < 0 {
				best = i
			}
		}
		merged[out] = execs[best].matches[next[best]]
		next[best]++
	}
	return merged, in
}

// beginQuerySpan opens the live "query" span: a child of the request
// span when the context carries one (the serving layer's root), else a
// fresh root trace on the front's registry, else nil — tracing off, and
// every downstream span call is a nil no-op.
func (f queryFront) beginQuerySpan(ctx context.Context) *obs.Span {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		return parent.Child("query")
	}
	if f.qm != nil {
		return f.qm.reg.StartSpan("query")
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

// observeQuery finishes one successful query's observability: the live
// query span gains its funnel attributes and ends (recording into the
// span ring), and the same quantities the query returns in QueryStats are
// re-emitted as counters and phase histograms. The span may outlive the
// registry handle — a request-scoped span keeps recording into the
// serving layer's registry even if SetMetrics detaches the database's.
func (f queryFront) observeQuery(qspan *obs.Span, stats QueryStats) {
	qspan.SetAttr("query_regions", int64(stats.QueryRegions))
	qspan.SetAttr("regions_retrieved", int64(stats.RegionsRetrieved))
	qspan.SetAttr("candidates", int64(stats.CandidateImages))
	if f.fleet() {
		qspan.SetAttr("shards", int64(len(f.snaps)))
	}
	qspan.End()
	m := f.qm
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

// front is the query front over the snapshot's pinned version vector.
func (s *Snapshot) front() queryFront {
	f := queryFront{snaps: s.snaps}
	if m := s.om.Load(); m != nil {
		f.qm = m.query
	}
	return f
}

// QueryContext runs the staged query pipeline against the snapshot: the
// same semantics as DB.QueryContext, but over this fixed version vector,
// so a caller can issue several queries against one consistent state
// while writers commit concurrently. Cancellation never tears the
// snapshot. An explicit snapshot has no result cache.
func (s *Snapshot) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return s.front().query(ctx, nil, querySource{im: im}, p)
}

// QueryByID runs the staged pipeline using the stored regions of an
// already-indexed image as the query, read from its owning shard's
// pinned version, skipping extraction entirely: the network front-end's
// "more like this" path. ErrUnknownID reports an id absent from (or
// removed before) this snapshot.
func (s *Snapshot) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	return s.front().query(ctx, nil, querySource{id: id}, p)
}

// QuerySceneContext is DB.QuerySceneContext over this snapshot.
func (s *Snapshot) QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	return s.front().query(ctx, nil, querySource{im: im, scene: true, x: x, y: y, w: w, h: h}, p)
}
