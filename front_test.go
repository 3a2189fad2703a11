package walrus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
)

// queryFrontAPI is the query surface both fronts export: DB and
// Snapshot.
type queryFrontAPI interface {
	QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error)
	QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error)
	QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error)
}

// namedFront is one front under test; cached fronts answer a repeated
// query from their result cache.
type namedFront struct {
	name   string
	f      queryFrontAPI
	cached bool
}

// frontCorpus is the image set the front tests index.
func frontCorpus(t *testing.T) []BatchItem {
	t.Helper()
	return corpus50(t)[:24]
}

// buildFronts indexes items into every kind of front: one-shard DBs
// built by the default options and by an explicit Shards of 1, a
// one-shard snapshot, a 3-shard DB and a 3-shard snapshot, with the DBs
// also built with a result cache. The first front is the uncached DB,
// the reference answer.
func buildFronts(t *testing.T, items []BatchItem) []namedFront {
	t.Helper()
	newDB := func(cache int) *DB {
		opts := testOptions()
		opts.CacheSize = cache
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		return db
	}
	newSharded := func(shards, cache int) *DB {
		opts := testOptions()
		opts.Shards = shards
		opts.CacheSize = cache
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		return s
	}
	db := newDB(0)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(snap.Release)
	sh3 := newSharded(3, 0)
	ss, err := sh3.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.Release)
	return []namedFront{
		{"DB", db, false},
		{"DB/cache", newDB(64), true},
		{"DB.Snapshot", snap, false},
		{"Sharded1", newSharded(1, 0), false},
		{"Sharded1/cache", newSharded(1, 64), true},
		{"Sharded3", sh3, false},
		{"Sharded3/cache", newSharded(3, 64), true},
		{"ShardedSnapshot3", ss, false},
	}
}

// TestQueryFrontsAgree runs every query source — pixels, stored id and
// scene — through every front under the quick and greedy matchers at
// Limit 0 and 3, and requires the uncached DB's answer from each: whole
// Match values and the funnel stats. A cached front is asked twice and
// must miss, then hit, with the same answer both times. A scene query
// must also answer exactly as the pixels query of its crop scored by the
// query-only denominator — on a cached front, from the same entry.
func TestQueryFrontsAgree(t *testing.T) {
	items := frontCorpus(t)
	fronts := buildFronts(t, items)
	ctx := context.Background()
	sceneImg := scene(green, red, 24, 24, 48)
	const sx, sy, sw, sh = 16, 16, 64, 64
	crop, err := imgio.Crop(sceneImg, sx, sy, sw, sh)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		run  func(f queryFrontAPI, p QueryParams) ([]Match, QueryStats, error)
	}{
		{"pixels", func(f queryFrontAPI, p QueryParams) ([]Match, QueryStats, error) {
			return f.QueryContext(ctx, items[5].Image, p)
		}},
		{"id", func(f queryFrontAPI, p QueryParams) ([]Match, QueryStats, error) {
			return f.QueryByID(ctx, items[7].ID, p)
		}},
		{"scene", func(f queryFrontAPI, p QueryParams) ([]Match, QueryStats, error) {
			return f.QuerySceneContext(ctx, sceneImg, sx, sy, sw, sh, p)
		}},
	}
	sameAnswer := func(label string, want []Match, ws QueryStats, got []Match, gs QueryStats) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: matches differ:\n got %+v\nwant %+v", label, got, want)
		}
		if gs.QueryRegions != ws.QueryRegions || gs.RegionsRetrieved != ws.RegionsRetrieved || gs.CandidateImages != ws.CandidateImages {
			t.Fatalf("%s: stats differ: got regions/retrieved/candidates %d/%d/%d, want %d/%d/%d", label,
				gs.QueryRegions, gs.RegionsRetrieved, gs.CandidateImages, ws.QueryRegions, ws.RegionsRetrieved, ws.CandidateImages)
		}
	}
	for _, matcher := range []match.Algorithm{match.Quick, match.Greedy} {
		for _, limit := range []int{0, 3} {
			p := DefaultQueryParams()
			p.Matcher = matcher
			p.Limit = limit
			for _, src := range sources {
				want, ws, err := src.run(fronts[0].f, p)
				if err != nil {
					t.Fatalf("%s/%v/limit=%d: reference: %v", src.name, matcher, limit, err)
				}
				if len(want) == 0 {
					t.Fatalf("%s/%v/limit=%d: reference returned no matches", src.name, matcher, limit)
				}
				for _, fr := range fronts {
					calls, outcomes := 1, []string{""}
					if fr.cached {
						calls, outcomes = 2, []string{"miss", "hit"}
					}
					for c := 0; c < calls; c++ {
						label := fmt.Sprintf("%s/%s/%v/limit=%d/call%d", fr.name, src.name, matcher, limit, c)
						got, gs, err := src.run(fr.f, p)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if gs.Cache != outcomes[c] {
							t.Fatalf("%s: Cache = %q, want %q", label, gs.Cache, outcomes[c])
						}
						sameAnswer(label, want, ws, got, gs)
					}
					if src.name != "scene" {
						continue
					}
					pq := p
					pq.Denominator = match.QueryOnly
					label := fmt.Sprintf("%s/crop/%v/limit=%d", fr.name, matcher, limit)
					got, gs, err := fr.f.QueryContext(ctx, crop, pq)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if fr.cached && gs.Cache != "hit" {
						t.Fatalf("%s: Cache = %q, want the scene's entry to hit", label, gs.Cache)
					}
					sameAnswer(label, want, ws, got, gs)
				}
			}
		}
	}
}

// TestQueryFrontErrors requires every front to reject the same bad
// requests with the same error: a negative or NaN epsilon and an already
// cancelled context on every source, an unknown id, a scene smaller than
// the minimum window and a scene rectangle outside the image.
func TestQueryFrontErrors(t *testing.T) {
	items := frontCorpus(t)[:8]
	fronts := buildFronts(t, items)
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	im := items[0].Image
	neg := DefaultQueryParams()
	neg.Epsilon = -0.1
	nan := DefaultQueryParams()
	nan.Epsilon = math.NaN()
	ok := DefaultQueryParams()
	cases := []struct {
		name  string
		run   func(f queryFrontAPI) error
		class func(error) bool
	}{
		{"negative-epsilon/pixels", func(f queryFrontAPI) error { _, _, err := f.QueryContext(bg, im, neg); return err }, nil},
		{"negative-epsilon/id", func(f queryFrontAPI) error { _, _, err := f.QueryByID(bg, items[1].ID, neg); return err }, nil},
		{"negative-epsilon/scene", func(f queryFrontAPI) error {
			_, _, err := f.QuerySceneContext(bg, im, 0, 0, 64, 64, neg)
			return err
		}, nil},
		{"nan-epsilon/pixels", func(f queryFrontAPI) error { _, _, err := f.QueryContext(bg, im, nan); return err }, nil},
		{"nan-epsilon/id", func(f queryFrontAPI) error { _, _, err := f.QueryByID(bg, items[1].ID, nan); return err }, nil},
		{"nan-epsilon/scene", func(f queryFrontAPI) error {
			_, _, err := f.QuerySceneContext(bg, im, 0, 0, 64, 64, nan)
			return err
		}, nil},
		{"cancelled/pixels", func(f queryFrontAPI) error { _, _, err := f.QueryContext(cancelled, im, ok); return err },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"cancelled/id", func(f queryFrontAPI) error { _, _, err := f.QueryByID(cancelled, items[1].ID, ok); return err },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"cancelled/scene", func(f queryFrontAPI) error {
			_, _, err := f.QuerySceneContext(cancelled, im, 0, 0, 64, 64, ok)
			return err
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"unknown-id", func(f queryFrontAPI) error { _, _, err := f.QueryByID(bg, "no-such-image", ok); return err },
			func(err error) bool { return errors.Is(err, ErrUnknownID) }},
		{"scene-below-min-window", func(f queryFrontAPI) error {
			_, _, err := f.QuerySceneContext(bg, im, 0, 0, 16, 16, ok)
			return err
		}, func(err error) bool { return strings.Contains(err.Error(), "smaller than the minimum window") }},
		{"scene-outside-image", func(f queryFrontAPI) error {
			_, _, err := f.QuerySceneContext(bg, im, 100, 100, 48, 48, ok)
			return err
		}, func(err error) bool { return strings.Contains(err.Error(), "cropping scene") }},
	}
	for _, tc := range cases {
		want := tc.run(fronts[0].f)
		if want == nil {
			t.Fatalf("%s: reference DB accepted the request", tc.name)
		}
		if tc.class != nil && !tc.class(want) {
			t.Fatalf("%s: reference error %v is of the wrong class", tc.name, want)
		}
		for _, fr := range fronts[1:] {
			err := tc.run(fr.f)
			if err == nil {
				t.Fatalf("%s/%s: accepted the request", fr.name, tc.name)
			}
			if err.Error() != want.Error() || (tc.class != nil && !tc.class(err)) {
				t.Fatalf("%s/%s: error %q, want %q", fr.name, tc.name, err, want)
			}
		}
	}
}

// TestQueryEntryPoints pins the query API: each of the two query types
// exports exactly the three context-taking Query* methods.
func TestQueryEntryPoints(t *testing.T) {
	want := []string{"QueryByID", "QueryContext", "QuerySceneContext"}
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*DB)(nil)),
		reflect.TypeOf((*Snapshot)(nil)),
	} {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Query") {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%v exports %v, want %v", typ, got, want)
		}
	}
}

// TestShardQueryStateAtFleet checks that query-side state lives only at
// the database: queries report under the unscoped walrus_query_* series,
// the shards register no query or cache series of their own (their write
// series stay), and the database holds the result cache — both when
// built and after Open, which restores it from the size the shard
// catalogs persist.
func TestShardQueryStateAtFleet(t *testing.T) {
	const shards, cacheSize = 3, 16
	opts := testOptions()
	opts.Shards = shards
	opts.CacheSize = cacheSize
	dir := filepath.Join(t.TempDir(), "fleet")
	disk, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	items := frontCorpus(t)[:6]
	checkCaches := func(label string, s *DB) {
		t.Helper()
		c := s.cache.Load()
		if c == nil || c.max != cacheSize {
			t.Fatalf("%s: fleet cache %+v, want capacity %d", label, c, cacheSize)
		}
		for i, sh := range s.shards {
			if got := sh.cur.Load().opts.CacheSize; got != cacheSize {
				t.Fatalf("%s: shard %d records CacheSize %d, want %d", label, i, got, cacheSize)
			}
		}
	}
	for _, tc := range []struct {
		name string
		s    *DB
	}{{"mem", mem}, {"disk", disk}} {
		checkCaches(tc.name, tc.s)
		reg := obs.NewRegistry()
		tc.s.SetMetrics(reg)
		if err := tc.s.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if _, _, err := tc.s.QueryContext(context.Background(), it.Image, DefaultQueryParams()); err != nil {
				t.Fatal(err)
			}
		}
		snap := reg.Snapshot()
		if got := snap.Counters["walrus_query_total"]; got != uint64(len(items)) {
			t.Fatalf("%s: walrus_query_total = %d, want %d", tc.name, got, len(items))
		}
		var names []string
		for name := range snap.Counters {
			names = append(names, name)
		}
		for name := range snap.Gauges {
			names = append(names, name)
		}
		for name := range snap.Histograms {
			names = append(names, name)
		}
		for _, name := range names {
			for i := 0; i < shards; i++ {
				scope := fmt.Sprintf("walrus_shard%d_", i)
				if strings.HasPrefix(name, scope+"query") || strings.HasPrefix(name, scope+"cache") {
					t.Fatalf("%s: shard series %s registered", tc.name, name)
				}
			}
		}
		for _, name := range []string{"walrus_shard0_ingest_total", "walrus_shard0_snapshots_total"} {
			if _, ok := snap.Counters[name]; !ok {
				t.Fatalf("%s: %s missing", tc.name, name)
			}
		}
		if _, ok := snap.Gauges["walrus_shard0_images"]; !ok {
			t.Fatalf("%s: walrus_shard0_images missing", tc.name)
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkCaches("reopened", reopened)
}
