package walrus

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
)

// corpus50 builds a seeded 50-image corpus of synthetic scenes with varied
// object positions, sizes and colors.
func corpus50(t *testing.T) []BatchItem {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	palette := [][2][3]float64{
		{green, red}, {gray, blue}, {green, yellow}, {gray, red}, {blue, yellow},
	}
	items := make([]BatchItem, 50)
	for i := range items {
		p := palette[i%len(palette)]
		side := 32 + rng.Intn(48)
		x := rng.Intn(128 - side)
		y := rng.Intn(128 - side)
		items[i] = BatchItem{
			ID:    fmt.Sprintf("corpus-%02d", i),
			Image: scene(p[0], p[1], x, y, side),
		}
	}
	return items
}

// assertSameRanking fails unless two databases rank a query identically —
// same ids, similarities, and matching-region counts in the same order.
func assertSameRanking(t *testing.T, label string, a, b *DB, q *imgio.Image, pa, pb QueryParams) {
	t.Helper()
	ma, sa, err := a.QueryContext(context.Background(), q, pa)
	if err != nil {
		t.Fatalf("%s: serial query: %v", label, err)
	}
	mb, sb, err := b.QueryContext(context.Background(), q, pb)
	if err != nil {
		t.Fatalf("%s: parallel query: %v", label, err)
	}
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

// TestAddBatchParallelDeterminism: ingesting the corpus with one worker and
// with four workers must produce databases that rank every query
// identically — the ordered-merge guarantee of the parallel pipeline.
func TestAddBatchParallelDeterminism(t *testing.T) {
	items := corpus50(t)
	serialOpts := testOptions()
	serialOpts.Parallelism = 1
	serial, err := New(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.AddBatch(items, 1); err != nil {
		t.Fatal(err)
	}
	parOpts := testOptions()
	parOpts.Parallelism = 4
	par, err := New(parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.AddBatch(items, 4); err != nil {
		t.Fatal(err)
	}
	ps := DefaultQueryParams()
	ps.Parallelism = 1
	pp := DefaultQueryParams()
	pp.Parallelism = 4
	for _, q := range []*imgio.Image{items[0].Image, items[7].Image, scene(green, red, 24, 24, 40)} {
		assertSameRanking(t, "AddBatch", serial, par, q, ps, pp)
	}
}

// TestBuildFromParallelDeterminism: the packed bulk-load path has the
// same guarantee.
func TestBuildFromParallelDeterminism(t *testing.T) {
	items := corpus50(t)
	serialOpts := testOptions()
	serialOpts.Parallelism = 1
	serial, err := BuildFrom(serialOpts, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	parOpts := testOptions()
	parOpts.Parallelism = 4
	par, err := BuildFrom(parOpts, items, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := DefaultQueryParams()
	ps.Parallelism = 1
	pp := DefaultQueryParams()
	pp.Parallelism = 4
	for _, q := range []*imgio.Image{items[3].Image, scene(gray, blue, 40, 40, 44)} {
		assertSameRanking(t, "BuildFrom", serial, par, q, ps, pp)
	}
}

// TestQueryParallelismDeterminism: on one database, every Parallelism
// setting must return the same matches and stats.
func TestQueryParallelismDeterminism(t *testing.T) {
	items := corpus50(t)
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddBatch(items, 0); err != nil {
		t.Fatal(err)
	}
	q := items[11].Image
	for _, par := range []int{0, 2, 4, 16} {
		ps := DefaultQueryParams()
		ps.Parallelism = 1
		pp := DefaultQueryParams()
		pp.Parallelism = par
		assertSameRanking(t, fmt.Sprintf("Parallelism=%d", par), db, db, q, ps, pp)
	}
}

// TestAggregateStageOrderIndependent: the per-image pair runs are a
// function of the hits each query region retrieved, not of the order the
// index emitted them in. Another tree shape emits the same hits in another
// order, and the one-to-one matchers break ties by pair order, so the
// pairs must reach the scorer in (Q, T) order whatever the emission order.
func TestAggregateStageOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Most images are hit by few query regions, so an image's run often
	// starts at the query region where its neighbour's run ends: the
	// fill must not order pairs across that boundary.
	const images = 12
	perRegion := make([][]probeHit, 4)
	for qi := range perRegion {
		for img := 0; img < images; img++ {
			if rng.Intn(3) != 0 {
				continue
			}
			for _, local := range rng.Perm(6)[:rng.Intn(4)] {
				perRegion[qi] = append(perRegion[qi], probeHit{image: img, pair: match.Pair{Q: qi, T: local}})
			}
		}
	}
	want, wantRetrieved := aggregateStage(perRegion, images)
	if !slices.IsSorted(want.images) || len(want.start) != len(want.images)+1 || want.start[len(want.images)] != len(want.pairs) {
		t.Fatalf("malformed candidate set: images %v, start %v, %d pairs", want.images, want.start, len(want.pairs))
	}
	// Reference: every image's hits, sorted by (Q, T).
	ref := make(map[int][]match.Pair)
	for _, hits := range perRegion {
		for _, h := range hits {
			ref[h.image] = append(ref[h.image], h.pair)
		}
	}
	if len(ref) != len(want.images) {
		t.Fatalf("%d candidates, want %d", len(want.images), len(ref))
	}
	for i, img := range want.images {
		pairs := want.pairsOf(i)
		wantPairs := ref[img]
		slices.SortFunc(wantPairs, func(a, b match.Pair) int {
			if a.Q != b.Q {
				return a.Q - b.Q
			}
			return a.T - b.T
		})
		if !slices.Equal(pairs, wantPairs) {
			t.Fatalf("image %d: pairs %v, want %v", img, pairs, wantPairs)
		}
		for j := 1; j < len(pairs); j++ {
			if a, b := pairs[j-1], pairs[j]; a.Q > b.Q || (a.Q == b.Q && a.T >= b.T) {
				t.Fatalf("image %d: pairs %v not in (Q, T) order", img, pairs)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		permuted := make([][]probeHit, len(perRegion))
		for qi, hits := range perRegion {
			permuted[qi] = append([]probeHit(nil), hits...)
			rng.Shuffle(len(hits), func(i, j int) { permuted[qi][i], permuted[qi][j] = permuted[qi][j], permuted[qi][i] })
		}
		got, retrieved := aggregateStage(permuted, images)
		if retrieved != wantRetrieved || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuting each region's hits changed the pair sets:\n got  %v\n want %v", trial, got, want)
		}
	}
}
