//walrus:lint-hot staged query pipeline: probe, refine fan-out, aggregate, inline scoring
package walrus

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
// bounding boxes match by box overlap. The hits of every region come back
// in one flat list, in the index's depth-first emission order, which
// follows the tree's shape; aggregateStage orders them, so scores, stats
// and rankings depend only on the set each region retrieves. The list is
// a pooled buffer that aggregateStage's caller returns. A nil tc (the
// common case) adds nothing to the probe path.
func (s *shardSnapshot) probeStage(qRegions []region.Region, p QueryParams, tc *traceCollector) (*hitBuf, error) {
	probes := make([]rstar.Probe, len(qRegions))
	for qi, qr := range qRegions {
		if s.core.opts.UseBBox {
			probes[qi].Box = signatureRect(true, qr).Expand(p.Epsilon)
		} else {
			probes[qi].Center, probes[qi].Eps = qr.Signature, p.Epsilon
		}
	}
	hb := hitPool.Get().(*hitBuf)
	hits := hb.hits[:0]
	indexHits := 0
	counts, err := s.view.Probe(probes, func(qi int, payload int64) {
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
	hb.hits = hits
	if tc != nil {
		tc.indexHits, tc.nodeVisits, tc.entryTests, tc.probeOut = indexHits, counts.Visits, counts.EntryTests, len(hits)
	}
	return hb, err
}

// hitBuf is the flat hit list of one query's probe, pooled across
// queries. It holds no pointers, so a pooled buffer keeps nothing of a
// query alive.
type hitBuf struct {
	hits []probeHit
}

var hitPool = sync.Pool{New: func() any { return new(hitBuf) }}

// refineChunk is the fewest hits one refine task filters.
const refineChunk = 256

// refineStage is the refined matching phase of Section 5.5: candidate
// pairs are re-verified against the finer signatures when both sides
// carry one, each against its own query region's bound. It filters the
// flat hit list in place, keeping the survivors' order, and returns the
// survivors. The list is cut into at most workers (a count, not 0)
// contiguous chunks filtered on the worker pool, each compacted within
// itself and then moved down behind the previous one. Every task checks
// the deadline so an expired context stops the refinement fan-out.
func (s *shardSnapshot) refineStage(ctx context.Context, qRegions []region.Region, hits []probeHit, p QueryParams, workers int, tc *traceCollector) ([]probeHit, error) {
	if !p.Refine {
		return hits, nil
	}
	// bounds[qi] is region qi's fine bound; NaN (no fine signature) keeps
	// every hit of the region, as no comparison with it passes.
	bounds := make([]float64, len(qRegions))
	for qi, qr := range qRegions {
		switch {
		case qr.Fine == nil:
			bounds[qi] = math.NaN()
		case p.RefineEpsilon != 0:
			bounds[qi] = p.RefineEpsilon
		default:
			// Scale epsilon by sqrt(fineDim/coarseDim), keeping the
			// per-dimension tolerance of the coarse check.
			bounds[qi] = p.Epsilon * math.Sqrt(float64(len(qr.Fine))/float64(len(qr.Signature)))
		}
	}
	chunks := max(1, min(workers, (len(hits)+refineChunk-1)/refineChunk))
	kept := make([]int, chunks)
	err := parallel.ForErr(chunks, workers, func(c int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := hits[c*len(hits)/chunks : (c+1)*len(hits)/chunks]
		n := 0
		for _, h := range chunk {
			target := s.core.cols.fineOf(s.core.images[h.image].First + h.pair.T)
			if target != nil && euclid(qRegions[h.pair.Q].Fine, target) > bounds[h.pair.Q] {
				continue
			}
			chunk[n] = h
			n++
		}
		kept[c] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for c, k := range kept {
		lo := c * len(hits) / chunks
		n += copy(hits[n:], hits[lo:lo+k])
	}
	if tc != nil {
		tc.refineOut = n
	}
	return hits[:n], nil
}

// candidateSet is the aggregate stage's output: the candidate images in
// ascending slot order and their probe pairs in one flat buffer, each
// candidate's run contiguous and in (Q, T) order — images[i]'s pairs are
// pairs[start[i]:start[i+1]]. Sets are pooled across queries: the score
// stage hands its set back to candPool once the ranking is built,
// which keeps no pair of it (the quick matcher returns none and the
// one-to-one matchers copy theirs).
type candidateSet struct {
	images []int
	start  []int
	pairs  []match.Pair
}

var candPool = sync.Pool{New: func() any { return new(candidateSet) }}

// getCandidates returns a pooled set sized for n candidates and m pairs.
// Its contents are stale: aggregateStage writes every element it reads.
func getCandidates(n, m int) *candidateSet {
	c := candPool.Get().(*candidateSet)
	c.images = resize(c.images, n)
	c.start = resize(c.start, n+1)
	c.pairs = resize(c.pairs, m)
	return c
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	// hit is a bitset of the slots hit, read out in slot order; it too is
	// zero in the pool.
	hit []uint64
	// fill holds the per-candidate fill cursors.
	fill []int
}

var aggPool = sync.Pool{New: func() any { return new(aggScratch) }}

// aggregateStage groups the flat hit list into the per-image pair runs
// the scorer consumes. numImages bounds the image slots the hits name.
// Hits are counted per image in a dense slot-indexed array, which also
// marks each image hit in a bitset; the bitset's words from the lowest
// to the highest slot hit, read in order, yield the candidates in
// ascending slot order with no sort. A second pass lays every hit into
// its image's run of one flat buffer, so the cost is linear in the hits
// plus the words the hit slots span. Each run comes out in
// (Q, T) order whatever order the index emitted the hits in, by an
// insertion step per hit: the one-to-one matchers break ties by pair
// order, and a ranking must not depend on the tree's shape.
func aggregateStage(hits []probeHit, numImages int) *candidateSet {
	sc := aggPool.Get().(*aggScratch)
	if len(sc.slot) < numImages {
		sc.slot = make([]int32, numImages)
		sc.hit = make([]uint64, (numImages+63)/64)
	}
	slot, hit := sc.slot, sc.hit
	// first and last bound the bitset words the hits set.
	n, first, last := 0, len(hit), -1
	for _, h := range hits {
		if slot[h.image] == 0 {
			w := h.image / 64
			hit[w] |= 1 << (h.image % 64)
			n++
			first, last = min(first, w), max(last, w)
		}
		slot[h.image]++
	}
	c := getCandidates(n, len(hits))
	c.start[0] = 0
	sc.fill = resize(sc.fill, n)
	fill := sc.fill
	i := 0
	for w := first; w <= last; w++ {
		for word := hit[w]; word != 0; word &= word - 1 {
			img := 64*w + bits.TrailingZeros64(word)
			c.images[i], fill[i] = img, c.start[i]
			c.start[i+1] = c.start[i] + int(slot[img])
			slot[img] = int32(i)
			i++
		}
		hit[w] = 0
	}
	for _, h := range hits {
		ci := slot[h.image]
		lo, at := c.start[ci], fill[ci]
		for at > lo && pairLess(h.pair, c.pairs[at-1]) {
			c.pairs[at] = c.pairs[at-1]
			at--
		}
		c.pairs[at] = h.pair
		fill[ci]++
	}
	for _, img := range c.images {
		slot[img] = 0
	}
	aggPool.Put(sc)
	return c
}

// pairLess orders pairs by query region, then target region.
func pairLess(a, b match.Pair) bool {
	return a.Q < b.Q || (a.Q == b.Q && a.T < b.T)
}

// scoreStage scores every candidate image on the calling goroutine, in
// ascending slot order, and keeps the matches with similarity >= p.Tau
// that rank in the top p.Limit (all of them when Limit is 0) by
// decreasing similarity, ties by id. qBits holds the query regions'
// bitmaps laid out flat, as the catalog's are. The returned slice is sized
// exactly to the kept matches, so it pins no memory of the candidates it
// dropped. The deadline is checked every few candidates.
func (s *shardSnapshot) scoreStage(ctx context.Context, qBits []uint64, qArea int, cands *candidateSet, p QueryParams) ([]Match, error) {
	cols := &s.core.cols
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
		res, err := match.ScoreTrusted(qBits, cols.bitsRun(rec.First, rec.First+rec.Count), cols.k, pairs, qArea, rec.W*rec.H, scoreOpts)
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
	var stored *storedQuery
	if src.im == nil {
		owner := f.snaps[shardOf(src.id, len(f.snaps))]
		idx, ok := owner.core.byID.get(src.id)
		if !ok {
			return nil, QueryStats{}, fmt.Errorf("walrus: query image %q: %w", src.id, ErrUnknownID)
		}
		stored = owner.core.queryOf(idx)
	}
	if c == nil {
		return f.run(ctx, src.im, stored, p)
	}
	return f.cachedQuery(ctx, c, src, stored, p)
}

// storedQuery is the query of a QueryByID: the stored regions of an
// indexed image, their bitmaps laid out flat, and the image's area, all
// read from the pinned version of its owning shard.
type storedQuery struct {
	regions []region.Region
	bits    []uint64
	area    int
}

// queryOf returns image slot idx as a query, aliasing the columns.
func (c *snapCore) queryOf(idx int) *storedQuery {
	rec := &c.images[idx]
	lo, hi := rec.First, rec.First+rec.Count
	return &storedQuery{regions: c.cols.regions(lo, hi), bits: c.cols.bitsRun(lo, hi), area: rec.W * rec.H}
}

// run executes the staged pipeline for a resolved query: the query
// regions are extracted from im — once, on shard 0, whose extractor
// every shard shares — or read from the stored image; every pinned
// shard then runs the probe phase and the score phase through the shared
// runner, each with its own stageExec, and a fleet merges the per-shard
// rankings. An EXPLAIN context gets one traceCollector per shard, folded
// into the funnel at the end.
func (f queryFront) run(ctx context.Context, im *imgio.Image, stored *storedQuery, p QueryParams) ([]Match, QueryStats, error) {
	start := statsClock()
	qspan := f.beginQuerySpan(ctx)
	es := qspan.Child("query.extract")
	var qRegions []region.Region
	var qBits []uint64
	var qArea int
	if stored != nil {
		qRegions, qBits, qArea = stored.regions, stored.bits, stored.area
	} else {
		var err error
		if qRegions, err = f.snaps[0].extractStage(im); err != nil {
			failSpans(es, qspan)
			return nil, QueryStats{}, err
		}
		// The catalog's bitmaps were checked on entry; the query's are
		// checked here, once, so every candidate is scored unchecked.
		k := f.snaps[0].core.opts.Region.BitmapGrid
		if err := checkGrid(k, qRegions); err != nil {
			failSpans(es, qspan)
			return nil, QueryStats{}, fmt.Errorf("walrus: query: %w", err)
		}
		qBits, qArea = match.Flatten(qRegions, k), im.W*im.H
	}
	es.End()
	stats := QueryStats{QueryRegions: len(qRegions), ExtractTime: statsSince(start)}

	probeStart := statsClock()
	qt := queryTraceFrom(ctx)
	execs := make([]stageExec, len(f.snaps))
	for i := range f.snaps {
		sn := &f.snaps[i]
		execs[i] = stageExec{snap: sn, qRegions: qRegions, qBits: qBits, qArea: qArea, p: p}
		if qt != nil {
			execs[i].tc = newTraceCollector(sn.core.version)
		}
	}
	if err := f.runPhase(ctx, planPhaseA(p), execs, qspan, "query.probe"); err != nil {
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
	if err := f.runPhase(ctx, scorePlan, execs, qspan, "query.score"); err != nil {
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
func (f queryFront) runPhase(ctx context.Context, plan []queryStage, execs []stageExec, qspan *obs.Span, umbrella string) error {
	if !f.fleet() {
		return runStages(ctx, plan, &execs[0], qspan, "query.", -1)
	}
	sp := qspan.Child(umbrella)
	err := parallel.ForErr(len(execs), 0, func(i int) error {
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
