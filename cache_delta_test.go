package walrus

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
)

// sameMatches reports where two rankings differ — ids, similarity bits,
// pairs or matching-region counts — or "" when they are equal.
func sameMatches(a, b []Match) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d matches against %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || math.Float64bits(x.Similarity) != math.Float64bits(y.Similarity) || x.MatchingRegions != y.MatchingRegions {
			return fmt.Sprintf("rank %d: %s %v (%d regions) against %s %v (%d regions)",
				i, x.ID, x.Similarity, x.MatchingRegions, y.ID, y.Similarity, y.MatchingRegions)
		}
		if (x.Pairs == nil) != (y.Pairs == nil) || len(x.Pairs) != len(y.Pairs) {
			return fmt.Sprintf("rank %d (%s): pairs %v against %v", i, x.ID, x.Pairs, y.Pairs)
		}
		for j := range x.Pairs {
			if x.Pairs[j] != y.Pairs[j] {
				return fmt.Sprintf("rank %d (%s): pairs %v against %v", i, x.ID, x.Pairs, y.Pairs)
			}
		}
	}
	return ""
}

// TestQueryCachePrivatePairs: the pairs of an answer belong to the
// caller that received it. Writing to them changes neither a later hit
// nor a delta brought forward from the entry, under every matcher that
// returns pairs, and a delta's own answer shares no pairs with the cache
// either.
func TestQueryCachePrivatePairs(t *testing.T) {
	ctx := context.Background()
	q := scene(green, red, 24, 24, 40)
	small, err := imgio.Crop(scene(green, red, 30, 30, 40), 16, 16, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []match.Algorithm{match.Greedy, match.Assignment, match.Exact} {
		db := cacheTestDB(t, 1, 20, 8)
		p := DefaultQueryParams()
		p.Matcher, p.Limit = alg, 5
		pn := p
		pn.NoCache = true
		// clobber overwrites every pair of an answer.
		clobber := func(ms []Match) {
			for i := range ms {
				for j := range ms[i].Pairs {
					ms[i].Pairs[j] = match.Pair{Q: 999, T: 999}
				}
			}
		}
		check := func(step, outcome string) {
			t.Helper()
			m, s, err := db.QueryContext(ctx, q, p)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := db.QueryContext(ctx, q, pn)
			if err != nil {
				t.Fatal(err)
			}
			if s.Cache != outcome {
				t.Fatalf("%v %s: Cache=%q, want %s", alg, step, s.Cache, outcome)
			}
			if d := sameMatches(m, want); d != "" {
				t.Fatalf("%v %s: the answer differs from NoCache: %s", alg, step, d)
			}
			if outcome == "miss" && (len(m) == 0 || len(m[0].Pairs) == 0) {
				t.Fatalf("%v: the first answer %+v has no pairs; the test shows nothing", alg, m)
			}
			clobber(m)
		}
		check("first query", "miss")
		check("hit after the caller wrote to its pairs", "hit")
		check("second hit", "hit")
		if err := db.Add("small", small); err != nil {
			t.Fatal(err)
		}
		check("delta after the caller wrote to its pairs", "delta")
		check("hit after the caller wrote to the delta's pairs", "hit")
	}
}

// deltaKey is one cacheable query of TestQueryCacheDelta.
type deltaKey struct {
	kind   string // "pixels", "scene" or "id"
	im     *imgio.Image
	id     string
	params QueryParams
}

// input is k as a public query method hands it to the query front.
func (k deltaKey) input() querySource {
	switch k.kind {
	case "pixels":
		return querySource{im: k.im}
	case "scene":
		return querySource{im: k.im, scene: true, x: 16, y: 8, w: 80, h: 96}
	}
	return querySource{id: k.id}
}

// resolved is k as the query front resolves it, with the parameters its
// cache key holds.
func (k deltaKey) resolved(t *testing.T) (querySource, QueryParams) {
	t.Helper()
	src, p := k.input(), k.params
	if src.scene {
		crop, err := imgio.Crop(src.im, src.x, src.y, src.w, src.h)
		if err != nil {
			t.Fatal(err)
		}
		src, p.Denominator = querySource{im: crop}, match.QueryOnly
	}
	return src, p
}

// expectOutcome predicts, from the cache entry of k and the versions a
// front f pins, how the cache will handle k on f: "hit", "delta", an
// extracting "miss", or a "reuse" miss that runs the full pipeline from
// the kept regions, with the reason for a pixels or scene reuse:
// "older" (a shard pinned before the answer's mark), "removal" (an
// image removed since) or "budget" (more distance tests than the last
// full probe's entry tests).
func expectOutcome(t *testing.T, c *queryCache, f queryFront, k deltaKey) (outcome, reason string) {
	t.Helper()
	src, p := k.resolved(t)
	key := cacheKey{params: canonicalParams(p)}
	if src.im != nil {
		key.query = hashQueryImage(src.im)
	} else {
		key.query = hashQueryID(src.id)
	}
	c.mu.Lock()
	el, ok := c.items[key]
	var e cacheEntry
	if ok {
		e = *el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	switch {
	case !ok && src.im != nil:
		return "miss", ""
	case !ok:
		return "reuse", ""
	case e.stamp == f.versionKey():
		return "hit", ""
	case src.im == nil:
		return "reuse", ""
	}
	tests, budget := 0, 0
	for i, m := range e.marks {
		core := f.snaps[i].core
		if core.version < m.version {
			return "reuse", "older"
		}
		if core.removed != m.removed {
			reason = "removal"
		}
		tests += (len(core.refs) - m.payloads) * len(e.query.regions)
		budget += m.entryTests
	}
	switch {
	case reason != "":
		return "reuse", reason
	case tests > budget:
		return "reuse", "budget"
	}
	return "delta", ""
}

// checkDeltaScan checks the delta scan against the index on every shard
// of db's current version, tombstones included: from each of 17 payloads
// spread over the shard on, deltaStage keeps exactly the hits a full
// probe keeps on the payloads from there on, for each query image's
// regions.
func checkDeltaScan(t *testing.T, db *DB, queryImages []*imgio.Image) {
	t.Helper()
	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	f := sn.front()
	p := DefaultQueryParams()
	order := func(a, b probeHit) int {
		if a.image != b.image {
			return a.image - b.image
		}
		return comparePairs(a.pair, b.pair)
	}
	tombstones := 0
	for _, im := range queryImages {
		sq, err := f.extract(im)
		if err != nil {
			t.Fatal(err)
		}
		for si := range f.snaps {
			s := &f.snaps[si]
			hb, _, err := s.probeStage(sq.regions, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			all := slices.Clone(hb.hits)
			for from := 0; from <= len(s.core.refs); from += 1 + len(s.core.refs)/16 {
				var want []probeHit
				for _, h := range all {
					if s.core.images[h.image].First+h.pair.T >= from {
						want = append(want, h)
					}
				}
				got := slices.Clone(s.deltaStage(sq.regions, from, p, nil).hits)
				slices.SortFunc(want, order)
				slices.SortFunc(got, order)
				if !slices.Equal(got, want) {
					t.Fatalf("shard %d from payload %d: the delta scan keeps %d hits, the probe %d", si, from, len(got), len(want))
				}
			}
			for _, ref := range s.core.refs {
				if ref.Local < 0 {
					tombstones++
				}
			}
		}
	}
	if tombstones == 0 {
		t.Fatal("no tombstoned payload: the delta scan's tombstone test shows nothing")
	}
}

// TestQueryCacheDelta runs a seeded interleaving of adds of single small
// images, batches, removes and re-adds of removed ids with pixels, scene
// and id queries over every combination of matcher (quick, greedy,
// assignment), τ (0, 0.4), Limit (0, 1, 10) and refine (off, on), at one
// shard and three, GOMAXPROCS 1 and 4. Every answer — hit, delta, or
// miss — must equal the NoCache answer at the same version: ids,
// similarity bits, pairs and matching-region counts. Before each query
// the test predicts the cache's outcome from the entry's marks and the
// pinned versions, and the query must report it. A front pinned before a
// write queries through the same cache too, and must fall back and
// answer for its own version. Every outcome and every fallback must
// occur. Last, the delta scan itself must keep exactly the probe's hits
// past any mark (checkDeltaScan), which the removal fallback otherwise
// keeps tombstones from reaching.
func TestQueryCacheDelta(t *testing.T) {
	items := corpus50(t)
	base, extra := items[:24], items[24:]
	var keys []deltaKey
	queryImages := []*imgio.Image{items[3].Image, items[10].Image, scene(green, red, 24, 24, 40), scene(gray, blue, 40, 40, 44)}
	kinds := []string{"pixels", "scene", "id"}
	i := 0
	for _, alg := range []match.Algorithm{match.Quick, match.Greedy, match.Assignment} {
		for _, tau := range []float64{0, 0.4} {
			for _, limit := range []int{0, 1, 10} {
				for _, refine := range []bool{false, true} {
					p := DefaultQueryParams()
					p.Matcher, p.Tau, p.Limit, p.Refine = alg, tau, limit, refine
					k := deltaKey{kind: kinds[i%len(kinds)], im: queryImages[i%len(queryImages)], id: base[i%8].ID, params: p}
					keys = append(keys, k)
					i++
				}
			}
		}
	}
	// smallItem is a 48×48 crop of a corpus image: few enough regions
	// that adding one stays within a delta's budget.
	smallItem := func(n int) BatchItem {
		src := items[n%len(items)]
		crop, err := imgio.Crop(src.Image, 8*(n%6), 8*(n%5), 48, 48)
		if err != nil {
			t.Fatal(err)
		}
		return BatchItem{ID: fmt.Sprintf("small-%03d", n), Image: crop}
	}

	for _, shards := range []int{1, 3} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/procs=%d", shards, procs), func(t *testing.T) {
				setProcs(t, procs)
				opts := testOptions()
				opts.Shards, opts.CacheSize = shards, 2*len(keys)
				opts.Region.FineSignature = 4
				db, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				db.SetMetrics(obs.NewRegistry())
				if err := db.AddBatch(base, 0); err != nil {
					t.Fatal(err)
				}
				live := map[string]BatchItem{}
				for _, it := range base {
					live[it.ID] = it
				}
				var removed []BatchItem
				rng := rand.New(rand.NewSource(int64(11*shards + procs)))
				nextSmall, nextExtra := 0, 0
				outcomes := map[string]int{}

				query := func(step int, f queryFront, c *queryCache, k deltaKey, label string) {
					t.Helper()
					wantOutcome, reason := expectOutcome(t, c, f, k)
					m, s, err := f.query(context.Background(), c, k.input(), k.params)
					if err != nil {
						t.Fatalf("step %d %s: %v", step, label, err)
					}
					want, _, err := f.query(context.Background(), nil, k.input(), k.params)
					if err != nil {
						t.Fatalf("step %d %s: %v", step, label, err)
					}
					outcome := s.Cache
					if outcome == "miss" && s.ExtractTime == 0 {
						outcome = "reuse"
					}
					if outcome != wantOutcome {
						t.Fatalf("step %d %s %s %+v: outcome %s, want %s (%s)", step, label, k.kind, k.params, outcome, wantOutcome, reason)
					}
					if d := sameMatches(m, want); d != "" {
						t.Fatalf("step %d %s %s %+v: the %s answer differs from NoCache: %s", step, label, k.kind, k.params, outcome, d)
					}
					outcomes[outcome]++
					if reason != "" {
						outcomes["fallback:"+reason]++
					}
				}

				for step := 0; step < 320; step++ {
					switch r := rng.Intn(20); {
					case r < 3: // one small image
						it := smallItem(nextSmall)
						nextSmall++
						if err := db.Add(it.ID, it.Image); err != nil {
							t.Fatal(err)
						}
						live[it.ID] = it
					case r == 3 && nextExtra < len(extra): // a batch of full images
						n := min(4+rng.Intn(4), len(extra)-nextExtra)
						batch := extra[nextExtra : nextExtra+n]
						nextExtra += n
						if err := db.AddBatch(batch, 0); err != nil {
							t.Fatal(err)
						}
						for _, it := range batch {
							live[it.ID] = it
						}
					case r == 4: // remove a live image, not one the id queries name
						ids := make([]string, 0, len(live))
						for id := range live {
							if id > base[7].ID {
								ids = append(ids, id)
							}
						}
						if len(ids) == 0 {
							continue
						}
						sort.Strings(ids)
						id := ids[rng.Intn(len(ids))]
						if ok, err := db.Remove(id); err != nil || !ok {
							t.Fatalf("Remove(%s) = %v, %v", id, ok, err)
						}
						removed = append(removed, live[id])
						delete(live, id)
					case r == 5 && len(removed) > 0: // re-add a removed id
						it := removed[0]
						removed = removed[1:]
						if err := db.Add(it.ID, it.Image); err != nil {
							t.Fatal(err)
						}
						live[it.ID] = it
					case r == 6: // a front pinned before a write
						k := keys[rng.Intn(len(keys))]
						if k.kind == "id" {
							continue
						}
						old, err := db.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						it := smallItem(nextSmall)
						nextSmall++
						if err := db.Add(it.ID, it.Image); err != nil {
							t.Fatal(err)
						}
						live[it.ID] = it
						live0, err := db.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						query(step, live0.front(), db.cache.Load(), k, "live")
						live0.Release()
						query(step, old.front(), db.cache.Load(), k, "old front")
						old.Release()
					default:
						k := keys[rng.Intn(len(keys))]
						sn, err := db.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						query(step, sn.front(), db.cache.Load(), k, "")
						sn.Release()
					}
				}
				t.Logf("outcomes %v", outcomes)
				checkDeltaScan(t, db, queryImages)
				for _, o := range []string{"hit", "delta", "reuse", "miss", "fallback:older", "fallback:removal", "fallback:budget"} {
					if outcomes[o] == 0 {
						t.Errorf("outcome %s never occurred: %v", o, outcomes)
					}
				}
				if got := db.Metrics().Counters["walrus_cache_deltas_total"]; got != uint64(outcomes["delta"]) {
					t.Errorf("walrus_cache_deltas_total = %d, want %d", got, outcomes["delta"])
				}
			})
		}
	}
}
