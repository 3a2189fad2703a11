//walrus:lint-hot staged query pipeline: probe, refine fan-out, aggregate, inline scoring
package walrus

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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

// probeStage answers every query region's probe in one index descent:
// nodes (pages, on disk) shared by several regions' probes are read once.
// A centroid signature probes with the ε-ball alone — the exact euclid
// test, which prunes inner nodes by MINDIST and decides at the leaves, so
// only true matches are handed back; an ε-cube beside it would add
// nothing but a rounding error at its edges (DESIGN.md, "Pruning by the
// ball"). A bounding-box signature probes with its ε-envelope, since
// bounding boxes match by box overlap. The hits of every region come back
// in one flat list, in the index's depth-first emission order, which
// follows the tree's shape; the score stage orders the pairs of each
// candidate it scores, so scores, stats and rankings depend only on the
// set each region retrieves. The list is
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
// candidate's run contiguous and in the order the probe emitted its
// hits — images[i]'s pairs are pairs[start[i]:start[i+1]]; the score
// stage puts a run in (Q, T) order only if it scores the candidate.
// Beside each candidate it keeps what the score stage bounds it by:
// qmask[i], bit q set for each query region q < 64 its pairs name, and
// tcells[i], the pop sum of the distinct target regions they name
// (regions past the 64th counted once per pair). Sets are pooled across
// queries: the score stage hands its set back to candPool once the
// ranking is built, which keeps no pair of it (the quick matcher returns
// none and the one-to-one matchers copy theirs).
type candidateSet struct {
	images []int
	start  []int
	pairs  []match.Pair
	qmask  []uint64
	tcells []int
}

var candPool = sync.Pool{New: func() any { return new(candidateSet) }}

// getCandidates returns a pooled set sized for n candidates and m pairs.
// Its contents are stale: aggregateStage writes every element it reads.
func getCandidates(n, m int) *candidateSet {
	c := candPool.Get().(*candidateSet)
	c.images = resize(c.images, n)
	c.start = resize(c.start, n+1)
	c.pairs = resize(c.pairs, m)
	c.qmask = resize(c.qmask, n)
	c.tcells = resize(c.tcells, n)
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
	// fill holds the per-candidate fill cursors, first each candidate's
	// first payload and tseen the target regions below 64 it has summed.
	fill, first []int
	tseen       []uint64
}

var aggPool = sync.Pool{New: func() any { return new(aggScratch) }}

// aggregateStage groups the flat hit list into the per-image pair runs
// the scorer consumes. images is the catalog the hits' image slots
// index, and pop its pop column. Hits are counted per image in a dense
// slot-indexed array, which also
// marks each image hit in a bitset; the bitset's words from the lowest
// to the highest slot hit, read in order, yield the candidates in
// ascending slot order with no sort. A second pass appends every hit to
// its image's run of one flat buffer, so the cost is linear in the hits
// plus the words the hit slots span, and sums each candidate's bound
// inputs, qmask and tcells, which depend only on the set of its pairs.
func aggregateStage(hits []probeHit, images []imageRecord, pop []uint16) *candidateSet {
	sc := aggPool.Get().(*aggScratch)
	if len(sc.slot) < len(images) {
		sc.slot = make([]int32, len(images))
		sc.hit = make([]uint64, (len(images)+63)/64)
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
	sc.fill, sc.first, sc.tseen = resize(sc.fill, n), resize(sc.first, n), resize(sc.tseen, n)
	fill, base, tseen := sc.fill, sc.first, sc.tseen
	i := 0
	for w := first; w <= last; w++ {
		for word := hit[w]; word != 0; word &= word - 1 {
			img := 64*w + bits.TrailingZeros64(word)
			c.images[i], fill[i], base[i] = img, c.start[i], images[img].First
			c.start[i+1] = c.start[i] + int(slot[img])
			c.qmask[i], c.tcells[i], tseen[i] = 0, 0, 0
			slot[img] = int32(i)
			i++
		}
		hit[w] = 0
	}
	for _, h := range hits {
		ci := slot[h.image]
		c.pairs[fill[ci]] = h.pair
		fill[ci]++
		// A shift by 64 or more is 0 in Go: a query region past the 64th
		// sets no bit, and a target region past the 64th is summed
		// again for every pair naming it, which still bounds the union.
		c.qmask[ci] |= 1 << uint(h.pair.Q)
		if bit := uint64(1) << uint(h.pair.T); tseen[ci]&bit == 0 {
			tseen[ci] |= bit
			c.tcells[ci] += popCells(pop[base[ci]+h.pair.T])
		}
	}
	for _, img := range c.images {
		slot[img] = 0
	}
	aggPool.Put(sc)
	return c
}

// comparePairs orders pairs by query region, then target region.
func comparePairs(a, b match.Pair) int {
	if a.Q != b.Q {
		return a.Q - b.Q
	}
	return a.T - b.T
}

// scoreStage scores the candidate images on the calling goroutine, in
// ascending slot order, and keeps the matches with similarity >= p.Tau
// that rank in the top p.Limit (all of them when Limit is 0) by
// decreasing similarity, ties by id. It returns them and the number of
// candidates it scored. A candidate is scored only if its coverage
// bound (match.Bound, from its qmask and tcells) could still keep it:
// a bound below τ, or one that ranks at or below the worst match of a
// full top-k at its own id, bounds a score that would be dropped, so
// the ranking is the one scoring every candidate gives. A scored
// candidate's pairs are first put in (Q, T) order: the one-to-one
// matchers break ties by pair order, and a ranking must not depend on
// the order the tree's shape emitted the hits in. qBits holds the
// query regions' bitmaps laid out flat, as the catalog's are. The
// returned slice is sized exactly to the kept matches, so it pins no
// memory of the candidates it dropped. The deadline is checked every
// few candidates.
func (s *shardSnapshot) scoreStage(ctx context.Context, qBits []uint64, qArea int, cands *candidateSet, p QueryParams) ([]Match, int, error) {
	cols := &s.core.cols
	scoreOpts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	top := newTopK(p.Limit, len(cands.images))
	qc := queryCells{bits: qBits, words: cols.words, all: -1}
	if len(qBits) > 64*cols.words {
		qc.all = unionCells(qBits, cols.words)
	}
	scored := 0
	for i, imgIdx := range cands.images {
		if i%16 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		rec := &s.core.images[imgIdx]
		tArea := rec.W * rec.H
		bound := match.Bound(qc.of(cands.qmask[i]), cands.tcells[i], cols.k, qArea, tArea, scoreOpts)
		if bound < p.Tau || top.misses(bound, rec.ID) {
			continue
		}
		scored++
		pairs := cands.pairsOf(i)
		slices.SortFunc(pairs, comparePairs)
		res, err := match.ScoreTrusted(qBits, cols.bitsRun(rec.First, rec.First+rec.Count), cols.k, pairs, qArea, tArea, scoreOpts)
		if err != nil {
			return nil, 0, err
		}
		if res.Similarity < p.Tau {
			continue
		}
		top.offer(Match{ID: rec.ID, Similarity: res.Similarity, Pairs: res.Pairs, MatchingRegions: len(pairs)})
	}
	return top.sorted(), scored, nil
}

// queryCells answers the query side of the coverage bound: the cells
// covered by the union of the query regions a candidate's pairs name,
// given as their qmask. A query of more than 64 regions answers with
// the union of all of them, which holds every candidate's. Unions are
// memoised in a small direct-mapped table keyed by mask; its zero entry
// holds mask 0, whose union is empty.
type queryCells struct {
	bits  []uint64
	words int
	all   int // the union of every region's cells; -1 for 64 regions or fewer
	memo  [64]struct {
		mask  uint64
		cells int
	}
}

// unionCells counts the cells of the union of every bitmap in flat, of
// words words each.
func unionCells(flat []uint64, words int) int {
	n := 0
	for w := 0; w < words; w++ {
		var u uint64
		for i := w; i < len(flat); i += words {
			u |= flat[i]
		}
		n += bits.OnesCount64(u)
	}
	return n
}

// of returns the cells covered by the union of the query regions in
// mask.
func (q *queryCells) of(mask uint64) int {
	if q.all >= 0 {
		return q.all
	}
	e := &q.memo[mask*0x9E3779B97F4A7C15>>58]
	if e.mask != mask {
		e.mask, e.cells = mask, q.union(mask)
	}
	return e.cells
}

// union counts the cells of the union of the regions in mask.
func (q *queryCells) union(mask uint64) int {
	n := 0
	for w := 0; w < q.words; w++ {
		var u uint64
		for m := mask; m != 0; m &= m - 1 {
			u |= q.bits[bits.TrailingZeros64(m)*q.words+w]
		}
		n += bits.OnesCount64(u)
	}
	return n
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
// query on its crop, an id to the stored record on its owning shard, and
// pixels to a storedQuery by extraction — and answers it from the result
// cache c, or from the pipeline when c is nil (caching off, and always on
// an explicit snapshot). With a cache, the lookup comes before
// extraction: a hit runs no pipeline, and a miss on a query the cache
// already holds takes its stored regions instead of extracting them.
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
	var sq *storedQuery
	if src.im == nil {
		owner := f.snaps[shardOf(src.id, len(f.snaps))]
		idx, ok := owner.core.byID.get(src.id)
		if !ok {
			return nil, QueryStats{}, fmt.Errorf("walrus: query image %q: %w", src.id, ErrUnknownID)
		}
		sq = owner.core.queryOf(idx)
	}
	var lk cacheLookup
	if c != nil && !p.NoCache {
		var hit bool
		if lk, hit = f.lookup(c, src, p); hit {
			return f.serveHit(ctx, lk, p)
		}
		if sq == nil {
			sq = lk.entry.query
		}
	}

	start := statsClock()
	qspan := f.beginQuerySpan(ctx)
	var extractTime time.Duration
	if sq == nil {
		es := qspan.Child("query.extract")
		var err error
		if sq, err = f.extract(src.im); err != nil {
			failSpans(es, qspan)
			return nil, QueryStats{}, err
		}
		es.End()
		extractTime = statsSince(start)
	}
	matches, stats, err := f.run(ctx, qspan, start, extractTime, sq, p)
	if err != nil || c == nil {
		return matches, stats, err
	}
	if p.NoCache {
		stats.Cache = "bypass"
		return matches, stats, nil
	}
	stats.Cache = "miss"
	if src.im == nil {
		sq = nil // an id query keeps no stored query; see cacheEntry
	}
	f.remember(ctx, c, lk, sq, matches, stats)
	return matches, stats, nil
}

// storedQuery is a query as the pipeline consumes it: its regions, their
// bitmaps laid out flat, and the query image's area. A QueryByID reads
// one from the pinned version of the image's owning shard; a pixels
// query builds one by extraction, and the result cache keeps it. The
// pipeline only reads it.
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

// extract decomposes a query image into a storedQuery with shard 0's
// extractor, which every shard shares, so extraction and the index
// probes are bound to the same configuration. The catalog's bitmaps were
// checked on entry; the query's are checked here, once, so every
// candidate is scored unchecked. The stored regions keep only what a
// stage reads — the signature, the fine signature (refine) and, under
// UseBBox alone, the box (probe) — as the result cache holds them: the
// bitmaps are read from the flat copy, so each region's own words go.
func (f queryFront) extract(im *imgio.Image) (*storedQuery, error) {
	core := f.snaps[0].core
	regions, err := core.ext.Extract(im)
	if err != nil {
		return nil, fmt.Errorf("walrus: extracting query regions: %w", err)
	}
	k := core.opts.Region.BitmapGrid
	if err := checkGrid(k, regions); err != nil {
		return nil, fmt.Errorf("walrus: query: %w", err)
	}
	sq := &storedQuery{regions: regions, bits: match.Flatten(regions, k), area: im.W * im.H}
	for i := range regions {
		regions[i].Bitmap = region.Bitmap{}
		if !core.opts.UseBBox {
			regions[i].Min, regions[i].Max = nil, nil
		}
	}
	return sq, nil
}

// run executes the staged pipeline for a resolved query under qspan, the
// query span opened at start; extractTime is the part of the time since
// start spent extracting sq, 0 when sq came resolved. Every pinned shard
// runs the probe phase and the score phase through the shared runner,
// each with its own stageExec, and a fleet merges the per-shard
// rankings. An EXPLAIN context gets one traceCollector per shard, folded
// into the funnel at the end.
func (f queryFront) run(ctx context.Context, qspan *obs.Span, start time.Time, extractTime time.Duration, sq *storedQuery, p QueryParams) ([]Match, QueryStats, error) {
	stats := QueryStats{QueryRegions: len(sq.regions), ExtractTime: extractTime}

	probeStart := statsClock()
	qt := queryTraceFrom(ctx)
	execs := make([]stageExec, len(f.snaps))
	for i := range f.snaps {
		sn := &f.snaps[i]
		execs[i] = stageExec{snap: sn, qRegions: sq.regions, qBits: sq.bits, qArea: sq.area, p: p}
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
		qt.fill(qspan, f.fleet(), p, len(sq.regions), execs, stats, mergedIn, len(matches), mergeNS)
	}
	scored := 0
	for i := range execs {
		scored += execs[i].scored
	}
	f.observeQuery(qspan, stats, scored)
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
// re-emitted as counters and phase histograms, beside scored, the
// candidates its shards scored. The span may outlive the
// registry handle — a request-scoped span keeps recording into the
// serving layer's registry even if SetMetrics detaches the database's.
func (f queryFront) observeQuery(qspan *obs.Span, stats QueryStats, scored int) {
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
	m.scored.Add(uint64(scored))
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
