package walrus

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"walrus/internal/dataset"
	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/region"
)

// randomQuery returns a w×h RGB image of seeded random samples.
func randomQuery(w, h int, seed int64) *imgio.Image {
	im := imgio.New(w, h, 3)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

// TestQueryFingerprint pins what the pixel fingerprint tells apart: every
// sample's bits, and the shape the samples are laid out in. Equal images
// fingerprint equal.
func TestQueryFingerprint(t *testing.T) {
	base := randomQuery(128, 85, 1)
	want := hashQueryImage(base)

	if got := hashQueryImage(base.Clone()); got != want {
		t.Fatalf("a clone fingerprints %#x, the original %#x", got, want)
	}
	// Every lane and the unrolled loop's tail: a one-ulp change to any of
	// the first and last 16 samples changes the key.
	n := len(base.Pix)
	for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, n/2 + 3, n - 16, n - 9, n - 8, n - 2, n - 1} {
		im := base.Clone()
		im.Pix[i] = math.Nextafter(im.Pix[i], 2)
		if hashQueryImage(im) == want {
			t.Fatalf("a one-ulp change of sample %d leaves the fingerprint unchanged", i)
		}
	}
	// A tail that is not a multiple of the lane count.
	odd := randomQuery(7, 3, 2)
	oddWant := hashQueryImage(odd)
	for i := range odd.Pix {
		im := odd.Clone()
		im.Pix[i] = math.Nextafter(im.Pix[i], -1)
		if hashQueryImage(im) == oddWant {
			t.Fatalf("7x3: a one-ulp change of sample %d leaves the fingerprint unchanged", i)
		}
	}

	zero := imgio.New(16, 16, 3)
	negZero := zero.Clone()
	negZero.Pix[17] = math.Copysign(0, -1)
	if hashQueryImage(zero) == hashQueryImage(negZero) {
		t.Fatal("+0 and -0 fingerprint equal")
	}

	swapped := base.Clone()
	swapped.W, swapped.H = base.H, base.W
	if hashQueryImage(swapped) == want {
		t.Fatal("the same samples with W and H swapped fingerprint equal")
	}

	// Two samples trading places between lanes change the key.
	perm := base.Clone()
	perm.Pix[0], perm.Pix[1] = perm.Pix[1], perm.Pix[0]
	if hashQueryImage(perm) == want {
		t.Fatal("swapping two samples leaves the fingerprint unchanged")
	}
}

// BenchmarkQueryFingerprint measures the pixel fingerprint every cached
// lookup pays, at the 128×85 size of the serving workload's queries.
func BenchmarkQueryFingerprint(b *testing.B) {
	im := randomQuery(128, 85, 1)
	b.SetBytes(int64(8 * len(im.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashQueryImage(im)
	}
}

// answerBytes is a query's answer as bytes: its matches and its stats but
// for their times and the cache outcome.
func answerBytes(t *testing.T, m []Match, s QueryStats) string {
	t.Helper()
	s.Elapsed, s.ExtractTime, s.ProbeTime, s.ScoreTime, s.Cache = 0, 0, 0, 0, ""
	b, err := json.Marshal(struct {
		Matches []Match
		Stats   QueryStats
	}{m, s})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cacheTestDB returns a database of the first n corpus images with a
// result cache of size entries.
func cacheTestDB(t *testing.T, shards, n, size int) *DB {
	t.Helper()
	opts := testOptions()
	opts.Shards = shards
	opts.CacheSize = size
	db, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(corpus50(t)[:n], 0); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryCacheRegionReuse: after a write that adds an image, a
// repeated pixels or scene query brings its cached answer forward by a
// delta; after one that removes an image, it misses. Either way it
// answers exactly what a NoCache query answers and runs no extraction:
// it works from the regions the cache kept. One shard and three.
func TestQueryCacheRegionReuse(t *testing.T) {
	q := scene(green, red, 24, 24, 40)
	for _, shards := range []int{1, 3} {
		db := cacheTestDB(t, shards, 20, 8)
		kinds := []struct {
			name string
			run  func(context.Context, QueryParams) ([]Match, QueryStats, error)
		}{
			{"pixels", func(ctx context.Context, p QueryParams) ([]Match, QueryStats, error) {
				return db.QueryContext(ctx, q, p)
			}},
			{"scene", func(ctx context.Context, p QueryParams) ([]Match, QueryStats, error) {
				return db.QuerySceneContext(ctx, q, 8, 8, 96, 96, p)
			}},
		}
		for ki, k := range kinds {
			label := fmt.Sprintf("shards=%d %s", shards, k.name)
			p := DefaultQueryParams()
			pn := p
			pn.NoCache = true
			m1, s1, err := k.run(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if s1.Cache != "miss" || s1.ExtractTime <= 0 {
				t.Fatalf("%s: first query Cache=%q ExtractTime=%v, want an extracting miss", label, s1.Cache, s1.ExtractTime)
			}

			// An added image: a delta over its regions alone. A 48×48 one
			// has few enough regions to stay within the delta's budget.
			id := fmt.Sprintf("write-%d", ki)
			small, err := imgio.Crop(scene(green, red, 30, 30, 40), 16, 16, 48, 48)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Add(id, small); err != nil {
				t.Fatal(err)
			}
			added, _ := db.RegionsOf(id)
			ctx, qt := WithQueryTrace(context.Background())
			m2, s2, err := k.run(ctx, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if s2.Cache != "delta" || s2.ExtractTime != 0 {
				t.Fatalf("%s: query after an add Cache=%q ExtractTime=%v, want a delta extracting nothing", label, s2.Cache, s2.ExtractTime)
			}
			if n := len(qt.Stages); n < 4 || qt.Stages[0].Stage != "cache" || qt.Stages[1].Stage != "delta" ||
				qt.Stages[1].In != len(added) || qt.Stages[1].EntryTests != len(added)*s1.QueryRegions || qt.Stages[n-1].Stage != "merge" {
				t.Fatalf("%s: EXPLAIN after an add %+v, want a cache row, a delta row scanning the %d added regions, and a merge row",
					label, qt.Stages, len(added))
			}
			if len(m2) != len(m1)+1 {
				t.Fatalf("%s: %d matches after the add, want %d", label, len(m2), len(m1)+1)
			}
			mn, sn, err := k.run(context.Background(), pn)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got, want := answerBytes(t, m2, QueryStats{}), answerBytes(t, mn, QueryStats{}); got != want {
				t.Fatalf("%s: delta answer\n%s\nNoCache answer\n%s", label, got, want)
			}

			// A removed image: a miss that probes from the kept regions.
			if _, err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
			ctx, qt = WithQueryTrace(context.Background())
			m3, s3, err := k.run(ctx, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if s3.Cache != "miss" || s3.ExtractTime != 0 {
				t.Fatalf("%s: query after a remove Cache=%q ExtractTime=%v, want a miss extracting nothing", label, s3.Cache, s3.ExtractTime)
			}
			if len(qt.Stages) < 2 || qt.Stages[0].Stage != "cache" || qt.Stages[1].Stage != "extract" ||
				qt.Stages[1].DurationNS != 0 || qt.Stages[1].Out != s1.QueryRegions {
				t.Fatalf("%s: EXPLAIN after a remove %+v, want a cache row, then an extract row of %d regions taking 0 ns",
					label, qt.Stages, s1.QueryRegions)
			}
			mn, sn, err = k.run(context.Background(), pn)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got, want := answerBytes(t, m3, s3), answerBytes(t, mn, sn); got != want {
				t.Fatalf("%s: reused-region answer\n%s\nNoCache answer\n%s", label, got, want)
			}
			if got, want := answerBytes(t, m3, QueryStats{}), answerBytes(t, m1, QueryStats{}); got != want {
				t.Fatalf("%s: answer after the add and the remove\n%s\nfirst answer\n%s", label, got, want)
			}
			m4, s4, err := k.run(context.Background(), p)
			if err != nil || s4.Cache != "hit" {
				t.Fatalf("%s: repeat after the miss: Cache=%q err=%v, want hit", label, s4.Cache, err)
			}
			if got, want := answerBytes(t, m4, s4), answerBytes(t, mn, sn); got != want {
				t.Fatalf("%s: hit\n%s\nNoCache answer\n%s", label, got, want)
			}
		}
	}
}

// TestQueryCacheStampPinsVersion: a front pinned at an old version and
// the live database query the same image, by pixels and by id, in turn
// through one cache. Each lookup finds the entry the other just stamped,
// so none hits. The old front misses every time: it is older than the
// entry's marks. The live database brings the old front's pixels answer
// forward by a delta, and misses by id. Each side always gets the
// answer of its own version: an answer is served only at the stamp it
// was computed at, and brought forward only to a newer one.
func TestQueryCacheStampPinsVersion(t *testing.T) {
	q := scene(green, red, 24, 24, 40)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		db := cacheTestDB(t, shards, 20, 8)
		old, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add("new", scene(green, red, 26, 26, 40)); err != nil {
			t.Fatal(err)
		}
		p := DefaultQueryParams()
		pn := p
		pn.NoCache = true
		sources := []querySource{{im: q}, {id: "corpus-00"}}
		for _, src := range sources {
			label := fmt.Sprintf("shards=%d id=%q", shards, src.id)
			mo, so, err := old.front().query(ctx, nil, src, p)
			if err != nil {
				t.Fatal(err)
			}
			oldWant := answerBytes(t, mo, so)
			live, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ml, sl, err := live.front().query(ctx, nil, src, pn)
			live.Release()
			if err != nil {
				t.Fatal(err)
			}
			liveWant, liveMatches := answerBytes(t, ml, sl), answerBytes(t, ml, QueryStats{})
			liveOutcome := "miss"
			if src.im != nil {
				liveOutcome = "delta"
			}
			if oldWant == liveWant {
				t.Fatalf("%s: the write did not change the answer; the test shows nothing", label)
			}
			c := db.cache.Load()
			for i := 0; i < 4; i++ {
				m, s, err := old.front().query(ctx, c, src, p)
				if err != nil {
					t.Fatal(err)
				}
				if s.Cache != "miss" || answerBytes(t, m, s) != oldWant {
					t.Fatalf("%s round %d: old version got Cache=%q and another version's answer: %s",
						label, i, s.Cache, answerBytes(t, m, s))
				}
				if src.im != nil {
					m, s, err = db.QueryContext(ctx, src.im, p)
				} else {
					m, s, err = db.QueryByID(ctx, src.id, p)
				}
				if err != nil {
					t.Fatal(err)
				}
				got, want := answerBytes(t, m, s), liveWant
				if s.Cache == "delta" {
					// A delta's stats count the delta's own work.
					got, want = answerBytes(t, m, QueryStats{}), liveMatches
				}
				if s.Cache != liveOutcome || got != want {
					t.Fatalf("%s round %d: live version got Cache=%q and another version's answer: %s",
						label, i, s.Cache, answerBytes(t, m, s))
				}
			}
		}
		old.Release()
	}
}

// TestQueryCacheExactness runs a seeded sequence of pixels, scene and id
// queries under a few parameter sets, with adds and removes in between,
// and checks every cached answer — hit, delta, miss on a stored query,
// or miss that extracts — against the same query with NoCache: equal
// matches, equal stats but for times and the cache outcome (a delta's
// count its own work), and, on a miss, the same EXPLAIN funnel behind the
// cache row. One shard and three.
func TestQueryCacheExactness(t *testing.T) {
	items := corpus50(t)
	pixels := []*imgio.Image{items[3].Image, items[7].Image, scene(green, red, 24, 24, 40), scene(gray, blue, 40, 40, 44)}
	params := []QueryParams{DefaultQueryParams(), DefaultQueryParams(), DefaultQueryParams()}
	params[1].Limit, params[1].Matcher = 5, match.Greedy
	params[2].Tau, params[2].Refine = 0.2, true
	for _, shards := range []int{1, 3} {
		db := cacheTestDB(t, shards, 30, 16)
		rng := rand.New(rand.NewSource(7))
		live := map[string]bool{}
		for _, it := range items[:30] {
			live[it.ID] = true
		}
		next := 30
		outcomes := map[string]int{}
		for step := 0; step < 160; step++ {
			if rng.Intn(8) == 0 {
				id := items[rng.Intn(next)].ID
				if live[id] {
					if _, err := db.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(live, id)
				} else if next < len(items) {
					if err := db.Add(items[next].ID, items[next].Image); err != nil {
						t.Fatal(err)
					}
					live[items[next].ID] = true
					next++
				}
				continue
			}
			p := params[rng.Intn(len(params))]
			var run func(context.Context, QueryParams) ([]Match, QueryStats, error)
			switch rng.Intn(3) {
			case 0:
				im := pixels[rng.Intn(len(pixels))]
				run = func(ctx context.Context, p QueryParams) ([]Match, QueryStats, error) {
					return db.QueryContext(ctx, im, p)
				}
			case 1:
				im := pixels[rng.Intn(len(pixels))]
				run = func(ctx context.Context, p QueryParams) ([]Match, QueryStats, error) {
					return db.QuerySceneContext(ctx, im, 16, 8, 80, 96, p)
				}
			default:
				id := items[rng.Intn(4)].ID
				if !live[id] {
					continue
				}
				run = func(ctx context.Context, p QueryParams) ([]Match, QueryStats, error) { return db.QueryByID(ctx, id, p) }
			}
			ctx, qt := WithQueryTrace(context.Background())
			m, s, err := run(ctx, p)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			pn := p
			pn.NoCache = true
			ctxn, qtn := WithQueryTrace(context.Background())
			mn, sn, err := run(ctxn, pn)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			got, want := answerBytes(t, m, s), answerBytes(t, mn, sn)
			if s.Cache == "delta" {
				got, want = answerBytes(t, m, QueryStats{}), answerBytes(t, mn, QueryStats{})
			}
			if got != want {
				t.Fatalf("shards=%d step %d: cache %s answered\n%s\nNoCache answered\n%s", shards, step, s.Cache, got, want)
			}
			kind := s.Cache
			if s.Cache == "miss" {
				if qt.Stages[0].Stage != "cache" {
					t.Fatalf("step %d: miss without a cache row: %+v", step, qt.Stages)
				}
				qt.Stages = qt.Stages[1:]
				if got, want := normalizeTrace(t, qt), normalizeTrace(t, qtn); got != want {
					t.Fatalf("shards=%d step %d: miss funnel\n%s\nNoCache funnel\n%s", shards, step, got, want)
				}
				if s.ExtractTime == 0 && sn.ExtractTime != 0 {
					kind = "reuse"
				}
			}
			outcomes[kind]++
		}
		if outcomes["hit"] == 0 || outcomes["delta"] == 0 || outcomes["miss"] == 0 || outcomes["reuse"] == 0 {
			t.Fatalf("shards=%d: outcomes %v, want hits, deltas, extracting misses and misses reusing regions", shards, outcomes)
		}
	}
}

// storedQueryBytes sums the capacities of a stored query's slices, in
// bytes: the heap a result-cache entry keeps for its query, beside the
// struct itself.
func storedQueryBytes(sq *storedQuery) int {
	n := cap(sq.regions)*int(reflect.TypeOf(region.Region{}).Size()) + 8*cap(sq.bits)
	for _, r := range sq.regions {
		n += 8 * (cap(r.Signature) + cap(r.Min) + cap(r.Max) + cap(r.Fine) + cap(r.Bitmap.Words))
	}
	return n
}

// TestStoredQueryBytes: a cached stored query keeps only what a stage
// reads — signatures and the flat bitmaps, no per-region bitmap words and
// no boxes unless the database probes with them. Measured over the
// cache entries of 48 seeded 128×85 renders at the default options.
func TestStoredQueryBytes(t *testing.T) {
	dopts := dataset.DefaultOptions()
	dopts.Seed, dopts.PerCategory, dopts.Sizes = 53, 4, [][2]int{{128, 85}}
	ds, err := dataset.Generate(dopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, bbox := range []bool{false, true} {
		opts := DefaultOptions()
		opts.UseBBox = bbox
		opts.CacheSize = len(ds.Items)
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range ds.Items {
			if _, _, err := db.QueryContext(context.Background(), it.Image, DefaultQueryParams()); err != nil {
				t.Fatal(err)
			}
		}
		c := db.cache.Load()
		total, regions := 0, 0
		for el := c.ll.Front(); el != nil; el = el.Next() {
			sq := el.Value.(*cacheEntry).query
			total += storedQueryBytes(sq)
			regions += len(sq.regions)
			for _, r := range sq.regions {
				if r.Bitmap.Words != nil || (r.Min != nil) != bbox || (r.Max != nil) != bbox {
					t.Fatalf("UseBBox=%v: stored region keeps %d bitmap words and a box of %d/%d values",
						bbox, len(r.Bitmap.Words), len(r.Min), len(r.Max))
				}
			}
		}
		if c.ll.Len() != len(ds.Items) {
			t.Fatalf("UseBBox=%v: %d cache entries for %d queries", bbox, c.ll.Len(), len(ds.Items))
		}
		perRegion := float64(total) / float64(regions)
		t.Logf("UseBBox=%v: %.0f B per stored query, %.0f B per region (%d regions)", bbox, float64(total)/float64(len(ds.Items)), perRegion, regions)
		// A region's struct, its 12-value signature and 4 bitmap words, and
		// its two 12-value bounds under UseBBox.
		want := float64(reflect.TypeOf(region.Region{}).Size()) + 8*(12+4)
		if bbox {
			want += 8 * 24
		}
		if perRegion > want {
			t.Errorf("UseBBox=%v: %.0f B per stored region, want at most %.0f", bbox, perRegion, want)
		}
	}
}
