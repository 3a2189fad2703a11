package walrus

import (
	"context"
	"math/rand"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
)

// testOptions shrinks windows so tests on 128x128 images are fast.
func testOptions() Options {
	o := DefaultOptions()
	o.Region.MaxWindow = 32
	o.Region.MinWindow = 32
	o.Region.Step = 8
	return o
}

// soleShard returns the one shard of a one-shard database, for tests
// that inspect the store's internals.
func soleShard(t *testing.T, db *DB) *shard {
	t.Helper()
	if len(db.shards) != 1 {
		t.Fatalf("database has %d shards, want 1", len(db.shards))
	}
	return db.shards[0]
}

// version returns the published version of a one-shard database.
func version(t *testing.T, db *DB) uint64 {
	t.Helper()
	return soleShard(t, db).cur.Load().version
}

// scene paints a base color with one square object of another color.
func scene(base, obj [3]float64, x, y, side int) *imgio.Image {
	im := imgio.New(128, 128, 3)
	im.FillRGB(base[0], base[1], base[2])
	for yy := y; yy < y+side; yy++ {
		for xx := x; xx < x+side; xx++ {
			im.SetRGB(xx, yy, obj[0], obj[1], obj[2])
		}
	}
	return im
}

var (
	green  = [3]float64{0.15, 0.65, 0.2}
	red    = [3]float64{0.85, 0.12, 0.1}
	blue   = [3]float64{0.1, 0.2, 0.85}
	yellow = [3]float64{0.9, 0.85, 0.1}
	gray   = [3]float64{0.5, 0.5, 0.5}
)

func TestAddAndQueryBasic(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("redgreen", scene(green, red, 32, 32, 48)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("bluegray", scene(gray, blue, 16, 16, 48)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.NumRegions() == 0 {
		t.Fatal("no regions indexed")
	}
	matches, stats, err := db.QueryContext(context.Background(), scene(green, red, 32, 32, 48), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("query returned nothing")
	}
	if matches[0].ID != "redgreen" {
		t.Fatalf("best match %q, want redgreen", matches[0].ID)
	}
	if matches[0].Similarity < 0.95 {
		t.Fatalf("self-similarity = %v, want ~1", matches[0].Similarity)
	}
	if stats.QueryRegions == 0 || stats.RegionsRetrieved == 0 || stats.CandidateImages == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.AvgRegionsPerQueryRegion() <= 0 {
		t.Fatal("AvgRegionsPerQueryRegion = 0")
	}
}

func TestAddDuplicateID(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	im := scene(green, red, 0, 0, 32)
	if err := db.Add("a", im); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", im); err == nil {
		t.Fatal("duplicate Add accepted")
	}
}

// TestTranslationRobustness is the headline property: the same object at a
// different location still matches, and scores above an unrelated image.
func TestTranslationRobustness(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("translated", scene(green, red, 72, 72, 48)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("unrelated", scene(gray, blue, 16, 64, 40)); err != nil {
		t.Fatal(err)
	}
	matches, _, err := db.QueryContext(context.Background(), scene(green, red, 8, 8, 48), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != "translated" {
		t.Fatalf("translated object not the best match: %+v", matches)
	}
	simOf := func(id string) float64 {
		for _, m := range matches {
			if m.ID == id {
				return m.Similarity
			}
		}
		return 0
	}
	if simOf("translated") <= simOf("unrelated") {
		t.Fatalf("translated %v <= unrelated %v", simOf("translated"), simOf("unrelated"))
	}
}

// TestScalingRobustness: the object at twice the size still matches.
func TestScalingRobustness(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("scaled", scene(green, red, 20, 20, 80)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("unrelated", scene(gray, yellow, 40, 40, 40)); err != nil {
		t.Fatal(err)
	}
	matches, _, err := db.QueryContext(context.Background(), scene(green, red, 40, 40, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != "scaled" {
		t.Fatalf("scaled object not the best match: %+v", matches)
	}
}

func TestQueryTauFiltersAndLimit(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	imgs := map[string]*imgio.Image{
		"a": scene(green, red, 10, 10, 50),
		"b": scene(green, red, 60, 60, 50),
		"c": scene(gray, blue, 30, 30, 50),
	}
	for id, im := range imgs {
		if err := db.Add(id, im); err != nil {
			t.Fatal(err)
		}
	}
	q := scene(green, red, 10, 10, 50)
	p := DefaultQueryParams()
	p.Tau = 0.99
	matches, _, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.Similarity < 0.99 {
			t.Fatalf("tau violated: %+v", m)
		}
	}
	p.Tau = 0
	p.Limit = 1
	matches, _, err = db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("limit violated: %d matches", len(matches))
	}
	if _, _, err := db.QueryContext(context.Background(), q, QueryParams{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// TestEpsilonMonotone: growing epsilon never shrinks the retrieved-region
// counts (Table 1's driving mechanism).
func TestEpsilonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		im := imgio.New(128, 128, 3)
		for j := range im.Pix {
			im.Pix[j] = rng.Float64()
		}
		if err := db.Add(string(rune('a'+i)), im); err != nil {
			t.Fatal(err)
		}
	}
	q := scene(green, red, 40, 40, 40)
	prevRetrieved, prevImages := -1, -1
	for _, eps := range []float64{0.02, 0.05, 0.1, 0.3} {
		p := DefaultQueryParams()
		p.Epsilon = eps
		_, stats, err := db.QueryContext(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RegionsRetrieved < prevRetrieved || stats.CandidateImages < prevImages {
			t.Fatalf("eps %v: retrieval shrank: %+v", eps, stats)
		}
		prevRetrieved, prevImages = stats.RegionsRetrieved, stats.CandidateImages
	}
}

func TestMatcherVariants(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("target", scene(green, red, 30, 30, 60)); err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 50, 50, 60)
	sims := map[match.Algorithm]float64{}
	for _, alg := range []match.Algorithm{match.Quick, match.Greedy, match.Exact} {
		p := DefaultQueryParams()
		p.Matcher = alg
		matches, _, err := db.QueryContext(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 1 {
			t.Fatalf("%v: %d matches", alg, len(matches))
		}
		sims[alg] = matches[0].Similarity
	}
	if sims[match.Quick] < sims[match.Exact]-1e-9 || sims[match.Exact] < sims[match.Greedy]-1e-9 {
		t.Fatalf("ordering violated: %v", sims)
	}
}

func TestUseBBoxMode(t *testing.T) {
	o := testOptions()
	o.UseBBox = true
	db, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("target", scene(green, red, 20, 20, 60)); err != nil {
		t.Fatal(err)
	}
	matches, _, err := db.QueryContext(context.Background(), scene(green, red, 40, 40, 60), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != "target" {
		t.Fatalf("bbox mode matches: %+v", matches)
	}
}

func TestRemove(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("keep", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("drop", scene(gray, blue, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	before := db.NumRegions()
	ok, err := db.Remove("drop")
	if err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	if db.Len() != 1 || db.NumRegions() >= before {
		t.Fatalf("after remove: Len=%d regions=%d (before %d)", db.Len(), db.NumRegions(), before)
	}
	ok, err = db.Remove("drop")
	if err != nil || ok {
		t.Fatalf("second Remove = %v, %v", ok, err)
	}
	// The removed image never matches again.
	matches, _, err := db.QueryContext(context.Background(), scene(gray, blue, 10, 10, 40), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == "drop" {
			t.Fatal("removed image still retrieved")
		}
	}
	if got := db.IDs(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("IDs = %v", got)
	}
}

func TestRegionsOf(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("x", scene(green, red, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	regions, ok := db.RegionsOf("x")
	if !ok || len(regions) == 0 {
		t.Fatalf("RegionsOf = %v, %v", regions, ok)
	}
	if _, ok := db.RegionsOf("missing"); ok {
		t.Fatal("RegionsOf found missing image")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	images := map[string]*imgio.Image{
		"flower1": scene(green, red, 20, 20, 50),
		"flower2": scene(green, red, 60, 50, 50),
		"ocean":   scene(blue, gray, 30, 80, 30),
	}
	for id, im := range images {
		if err := db.Add(id, im); err != nil {
			t.Fatal(err)
		}
	}
	q := scene(green, red, 40, 30, 50)
	wantMatches, _, err := db.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	gotMatches, _, err := re.QueryContext(context.Background(), q, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMatches) != len(wantMatches) {
		t.Fatalf("match counts differ after reopen: %d vs %d", len(gotMatches), len(wantMatches))
	}
	for i := range gotMatches {
		if gotMatches[i].ID != wantMatches[i].ID {
			t.Fatalf("rank %d: %q vs %q", i, gotMatches[i].ID, wantMatches[i].ID)
		}
		if d := gotMatches[i].Similarity - wantMatches[i].Similarity; d > 1e-12 || d < -1e-12 {
			t.Fatalf("rank %d similarity drifted: %v vs %v", i, gotMatches[i].Similarity, wantMatches[i].Similarity)
		}
	}
	// Adding to a reopened database works.
	if err := re.Add("new", scene(yellow, blue, 10, 10, 40)); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 4 {
		t.Fatalf("Len after add = %d", re.Len())
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open succeeded on empty directory")
	}
}

func TestInMemoryCloseIsNoop(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	o := testOptions()
	o.Region.Signature = 3
	if _, err := New(o); err == nil {
		t.Fatal("New accepted invalid region options")
	}
	if _, err := Create(t.TempDir(), o); err == nil {
		t.Fatal("Create accepted invalid region options")
	}
}

// TestQueryStatsBreakdown: the phase timings are populated and bounded by
// the total.
func TestQueryStatsBreakdown(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 20, 20, 50)); err != nil {
		t.Fatal(err)
	}
	_, stats, err := db.QueryContext(context.Background(), scene(green, red, 30, 30, 50), DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExtractTime <= 0 {
		t.Fatalf("ExtractTime = %v", stats.ExtractTime)
	}
	if stats.ProbeTime < 0 || stats.ScoreTime < 0 {
		t.Fatalf("negative phase times: %+v", stats)
	}
	if sum := stats.ExtractTime + stats.ProbeTime + stats.ScoreTime; sum > stats.Elapsed+stats.Elapsed/2 {
		t.Fatalf("phase times %v exceed elapsed %v", sum, stats.Elapsed)
	}
}
