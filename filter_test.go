package walrus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
)

// queryBackend is the query surface shared by DB and Sharded, letting
// the determinism matrix run the same assertions over both.
type queryBackend interface {
	QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error)
}

// filterBackend builds a corpus-loaded backend with the given shard
// count (1 means a plain DB, so both code paths are exercised).
func filterBackend(t *testing.T, items []BatchItem, shards int) queryBackend {
	t.Helper()
	if shards == 1 {
		db, err := New(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items, 0); err != nil {
			t.Fatal(err)
		}
		return db
	}
	opts := testOptions()
	opts.Shards = shards
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertSameAnswer fails unless two query executions agree on the full
// observable result: ranking, similarities, region counts, and the
// funnel-visible stats.
func assertSameAnswer(t *testing.T, label string, ma []Match, sa QueryStats, mb []Match, sb QueryStats) {
	t.Helper()
	if sa.RegionsRetrieved != sb.RegionsRetrieved || sa.CandidateImages != sb.CandidateImages {
		t.Fatalf("%s: stats differ: retrieved %d/%d candidates %d/%d",
			label, sa.RegionsRetrieved, sb.RegionsRetrieved, sa.CandidateImages, sb.CandidateImages)
	}
	if len(ma) != len(mb) {
		t.Fatalf("%s: %d matches vs %d", label, len(ma), len(mb))
	}
	for i := range ma {
		if ma[i].ID != mb[i].ID || ma[i].Similarity != mb[i].Similarity ||
			ma[i].MatchingRegions != mb[i].MatchingRegions {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", label, i, ma[i], mb[i])
		}
	}
}

// TestQueryDeterminismMatrix pins the answer across the execution matrix
// — shards {1,4} x GOMAXPROCS {1,8}, with and without refine — to the
// serial unsharded run: only wall-clock time may change.
func TestQueryDeterminismMatrix(t *testing.T) {
	items := corpus50(t)
	queries := []*imgio.Image{
		items[0].Image,
		items[11].Image,
		scene(green, red, 24, 24, 40),
		scene(gray, blue, 40, 40, 44),
	}
	type answer struct {
		matches []Match
		stats   QueryStats
	}
	oracle := map[string]answer{}
	for _, shards := range []int{1, 4} {
		backend := filterBackend(t, items, shards)
		for _, procs := range []int{1, 8} {
			setProcs(t, procs)
			for _, refine := range []bool{false, true} {
				p := DefaultQueryParams()
				p.Refine = refine
				for qi, q := range queries {
					label := fmt.Sprintf("shards=%d procs=%d refine=%v q%d", shards, procs, refine, qi)
					m, st, err := backend.QueryContext(context.Background(), q, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					key := fmt.Sprintf("refine=%v q%d", refine, qi)
					if want, ok := oracle[key]; ok {
						assertSameAnswer(t, label, want.matches, want.stats, m, st)
					} else {
						oracle[key] = answer{m, st}
					}
				}
			}
		}
	}
}

// TestQueryCache covers the result cache protocol on a single DB: a
// repeat query hits, the served result is a private copy, a committed
// write makes the next lookup miss — on this two-image database each
// write adds more regions than a probe tests, past the budget of a delta
// (TestQueryCacheDelta covers those) — NoCache bypasses without
// populating, LRU eviction shows up in the metrics, and a scene query
// goes through the same protocol under its crop's key.
func TestQueryCache(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	db.SetCacheSize(2)
	if err := db.Add("target", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("other", scene(gray, blue, 16, 16, 48)); err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 32, 32, 48)
	p := DefaultQueryParams()

	m1, s1, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cache != "miss" {
		t.Fatalf("first query Cache = %q, want miss", s1.Cache)
	}
	m2, s2, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cache != "hit" {
		t.Fatalf("repeat query Cache = %q, want hit", s2.Cache)
	}
	assertSameAnswer(t, "hit vs miss", m1, s1, m2, s2)

	// The cached entry is private: clobbering a served slice must not
	// leak into later hits.
	m2[0].ID = "clobbered"
	m3, s3, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Cache != "hit" || m3[0].ID != m1[0].ID {
		t.Fatalf("served result not private: Cache=%q best=%q", s3.Cache, m3[0].ID)
	}

	// NoCache bypasses in both directions: it neither reads the cached
	// entry nor stores one under a fresh key.
	pn := p
	pn.Tau = 0.01
	pn.NoCache = true
	if _, sn, err := db.QueryContext(context.Background(), q, pn); err != nil || sn.Cache != "bypass" {
		t.Fatalf("NoCache query: Cache=%q err=%v, want bypass", sn.Cache, err)
	}
	pn.NoCache = false
	if _, sn, err := db.QueryContext(context.Background(), q, pn); err != nil || sn.Cache != "miss" {
		t.Fatalf("query after bypass: Cache=%q err=%v, want miss (bypass must not populate)", sn.Cache, err)
	}

	// A committed write publishes a new version; the old entries can
	// never be served again as they are.
	if err := db.Add("target2", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	m4, s4, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if s4.Cache != "miss" {
		t.Fatalf("query after write Cache = %q, want miss", s4.Cache)
	}
	if len(m4) != len(m1)+1 {
		t.Fatalf("query after write returned %d matches, want %d", len(m4), len(m1)+1)
	}

	// Capacity is 2: a third distinct key evicts the cold end.
	pe := p
	pe.Tau = 0.02
	if _, _, err := db.QueryContext(context.Background(), q, pe); err != nil {
		t.Fatal(err)
	}
	pe.Tau = 0.03
	if _, _, err := db.QueryContext(context.Background(), q, pe); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics()
	if snap.Counters["walrus_cache_evictions_total"] == 0 {
		t.Fatalf("no evictions recorded: %v", snap.Counters)
	}
	if got := snap.Gauges["walrus_cache_entries"]; got != 2 {
		t.Fatalf("cache_entries = %d, want 2", got)
	}
	if snap.Counters["walrus_cache_hits_total"] < 2 {
		t.Fatalf("cache_hits_total = %d, want >= 2", snap.Counters["walrus_cache_hits_total"])
	}

	// A scene query is the pixels query of its crop scored by the
	// query-only denominator, and caches as one: miss, hit, the crop's
	// own query served from the same entry, NoCache bypassing, and a
	// write invalidating.
	ctx := context.Background()
	ms1, ss1, err := db.QuerySceneContext(ctx, q, 16, 16, 64, 64, p)
	if err != nil || ss1.Cache != "miss" {
		t.Fatalf("first scene query: Cache=%q err=%v, want miss", ss1.Cache, err)
	}
	ms2, ss2, err := db.QuerySceneContext(ctx, q, 16, 16, 64, 64, p)
	if err != nil || ss2.Cache != "hit" {
		t.Fatalf("repeat scene query: Cache=%q err=%v, want hit", ss2.Cache, err)
	}
	assertSameAnswer(t, "scene hit vs miss", ms1, ss1, ms2, ss2)
	crop, err := imgio.Crop(q, 16, 16, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	pq := p
	pq.Denominator = match.QueryOnly
	mc, sc, err := db.QueryContext(ctx, crop, pq)
	if err != nil || sc.Cache != "hit" {
		t.Fatalf("crop query: Cache=%q err=%v, want a hit on the scene's entry", sc.Cache, err)
	}
	assertSameAnswer(t, "crop vs scene", ms1, ss1, mc, sc)
	psn := p
	psn.NoCache = true
	if _, sn, err := db.QuerySceneContext(ctx, q, 16, 16, 64, 64, psn); err != nil || sn.Cache != "bypass" {
		t.Fatalf("NoCache scene query: Cache=%q err=%v, want bypass", sn.Cache, err)
	}
	if err := db.Add("target3", scene(green, red, 40, 40, 48)); err != nil {
		t.Fatal(err)
	}
	ms3, ss3, err := db.QuerySceneContext(ctx, q, 16, 16, 64, 64, p)
	if err != nil || ss3.Cache != "miss" {
		t.Fatalf("scene query after write: Cache=%q err=%v, want miss", ss3.Cache, err)
	}
	if len(ms3) != len(ms1)+1 {
		t.Fatalf("scene query after write returned %d matches, want %d", len(ms3), len(ms1)+1)
	}
}

// TestQueryCacheSharded runs the same protocol over a sharded database,
// where an answer is stamped with the pinned version vector: a write to
// any one shard makes the next lookup of every entry miss (here past the
// delta budget, as in TestQueryCache).
func TestQueryCacheSharded(t *testing.T) {
	opts := testOptions()
	opts.Shards = 4
	opts.CacheSize = 8
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("target", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 32, 32, 48)
	p := DefaultQueryParams()
	m1, s1, err := s.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cache != "miss" {
		t.Fatalf("first query Cache = %q, want miss", s1.Cache)
	}
	m2, s2, err := s.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cache != "hit" {
		t.Fatalf("repeat query Cache = %q, want hit", s2.Cache)
	}
	assertSameAnswer(t, "sharded hit vs miss", m1, s1, m2, s2)

	// QueryByID caches under its own key family.
	if _, sb, err := s.QueryByID(context.Background(), "target", p); err != nil || sb.Cache != "miss" {
		t.Fatalf("QueryByID: Cache=%q err=%v, want miss", sb.Cache, err)
	}
	if _, sb, err := s.QueryByID(context.Background(), "target", p); err != nil || sb.Cache != "hit" {
		t.Fatalf("repeat QueryByID: Cache=%q err=%v, want hit", sb.Cache, err)
	}

	if err := s.Add("other", scene(gray, blue, 16, 16, 48)); err != nil {
		t.Fatal(err)
	}
	if _, s3, err := s.QueryContext(context.Background(), q, p); err != nil || s3.Cache != "miss" {
		t.Fatalf("query after write Cache = %q err=%v, want miss", s3.Cache, err)
	}
}

// TestQueryCacheChurn races a writer committing new images against
// readers whose query never matches the churn: with version-stamped
// answers every read — hit, delta or miss — must observe a consistent
// published version, so the expected match is present in every answer
// and no stale result outlives the write that invalidated it.
func TestQueryCacheChurn(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db.SetCacheSize(8)
	if err := db.Add("target", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 32, 32, 48)
	p := DefaultQueryParams()
	// Blue churn images never clear this threshold against the green/red
	// query, so the expected answer is the same at every version.
	p.Tau = 0.9

	const writes = 12
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := db.Add(fmt.Sprintf("churn-%02d", i), scene(gray, blue, 16, 16, 48)); err != nil {
				t.Errorf("churn add: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*writes; i++ {
				matches, stats, err := db.QueryContext(context.Background(), q, p)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(matches) != 1 || matches[0].ID != "target" {
					t.Errorf("reader saw %+v, want exactly [target]", matches)
					return
				}
				if stats.Cache != "hit" && stats.Cache != "delta" && stats.Cache != "miss" {
					t.Errorf("reader Cache = %q", stats.Cache)
					return
				}
			}
		}()
	}
	wg.Wait()
}
