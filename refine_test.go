package walrus

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/region"
)

// fineOptions enables two-tier signatures.
func fineOptions() Options {
	o := testOptions()
	o.Region.FineSignature = 8
	return o
}

func TestFineSignaturesStored(t *testing.T) {
	db, err := New(fineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("x", scene(green, red, 20, 20, 50)); err != nil {
		t.Fatal(err)
	}
	regions, ok := db.RegionsOf("x")
	if !ok || len(regions) == 0 {
		t.Fatal("no regions")
	}
	wantDim := 3 * 8 * 8
	for _, r := range regions {
		if len(r.Fine) != wantDim {
			t.Fatalf("fine signature dim %d, want %d", len(r.Fine), wantDim)
		}
		// The fine signature's top-left 2x2 corner per channel must equal
		// the coarse signature (both are centroids of corners of the same
		// per-window transforms).
		for c := 0; c < 3; c++ {
			for rr := 0; rr < 2; rr++ {
				for cc := 0; cc < 2; cc++ {
					coarse := r.Signature[c*4+rr*2+cc]
					fine := r.Fine[c*64+rr*8+cc]
					if d := coarse - fine; d > 1e-9 || d < -1e-9 {
						t.Fatalf("fine corner != coarse: %v vs %v", fine, coarse)
					}
				}
			}
		}
	}
}

// TestRefineNeverAddsPairs: the refined phase can only drop candidate
// pairs, so retrieved-region counts never grow.
func TestRefineNeverAddsPairs(t *testing.T) {
	db, err := New(fineOptions())
	if err != nil {
		t.Fatal(err)
	}
	imgs := []*imgio.Image{
		scene(green, red, 10, 10, 50),
		scene(green, red, 60, 60, 50),
		scene(gray, blue, 30, 30, 50),
		scene(green, yellow, 40, 20, 40),
	}
	for i, im := range imgs {
		if err := db.Add(string(rune('a'+i)), im); err != nil {
			t.Fatal(err)
		}
	}
	q := scene(green, red, 30, 30, 50)
	p := DefaultQueryParams()
	p.Epsilon = 0.15 // generous, so the coarse probe over-retrieves
	_, plain, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Refine = true
	_, refined, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if refined.RegionsRetrieved > plain.RegionsRetrieved {
		t.Fatalf("refine grew pairs: %d > %d", refined.RegionsRetrieved, plain.RegionsRetrieved)
	}
	if refined.RegionsRetrieved == 0 {
		t.Fatal("refine dropped everything, including true matches")
	}
}

// TestRefineKeepsTrueMatch: an identical image survives refinement at
// full similarity.
func TestRefineKeepsTrueMatch(t *testing.T) {
	db, err := New(fineOptions())
	if err != nil {
		t.Fatal(err)
	}
	im := scene(green, red, 25, 35, 55)
	if err := db.Add("self", im); err != nil {
		t.Fatal(err)
	}
	p := DefaultQueryParams()
	p.Refine = true
	matches, _, err := db.QueryContext(context.Background(), im, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Similarity < 0.95 {
		t.Fatalf("self match under refinement: %+v", matches)
	}
}

// TestRefineIgnoredWithoutFineSignatures: enabling Refine on a database
// without fine signatures changes nothing.
func TestRefineIgnoredWithoutFineSignatures(t *testing.T) {
	db, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 20, 20, 50)); err != nil {
		t.Fatal(err)
	}
	q := scene(green, red, 40, 40, 50)
	p := DefaultQueryParams()
	_, plain, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Refine = true
	_, refined, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.RegionsRetrieved != refined.RegionsRetrieved {
		t.Fatalf("refine changed results without fine signatures: %d vs %d",
			plain.RegionsRetrieved, refined.RegionsRetrieved)
	}
}

// TestRefineCustomEpsilon: a tiny RefineEpsilon prunes aggressively.
func TestRefineCustomEpsilon(t *testing.T) {
	db, err := New(fineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", scene(green, red, 20, 20, 50)); err != nil {
		t.Fatal(err)
	}
	// Slightly different red hue: passes coarse, should fail a strict fine
	// bound.
	q := scene(green, [3]float64{0.8, 0.18, 0.12}, 22, 22, 50)
	p := DefaultQueryParams()
	p.Epsilon = 0.15
	p.Refine = true
	p.RefineEpsilon = 1e-9
	_, stats, err := db.QueryContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RegionsRetrieved != 0 {
		t.Fatalf("strict refine bound kept %d pairs", stats.RegionsRetrieved)
	}
}

// TestMergeRegionsReducesCount: the agglomerative repair pass never
// increases the region count and keeps retrieval working.
func TestMergeRegionsReducesCount(t *testing.T) {
	base := testOptions()
	merged := testOptions()
	merged.Region.MergeRegions = true
	im := scene(green, red, 30, 30, 60)

	dbA, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbA.Add("x", im); err != nil {
		t.Fatal(err)
	}
	dbB, err := New(merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbB.Add("x", im); err != nil {
		t.Fatal(err)
	}
	if dbB.NumRegions() > dbA.NumRegions() {
		t.Fatalf("merge increased regions: %d > %d", dbB.NumRegions(), dbA.NumRegions())
	}
	matches, _, err := dbB.QueryContext(context.Background(), im, DefaultQueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Similarity < 0.95 {
		t.Fatalf("merged-region retrieval broken: %+v", matches)
	}
}

func TestFineSignatureValidation(t *testing.T) {
	o := testOptions()
	o.Region.FineSignature = 3 // not a power of two
	if _, err := New(o); err == nil {
		t.Error("accepted FineSignature 3")
	}
	o.Region.FineSignature = 2 // not > Signature
	if _, err := New(o); err == nil {
		t.Error("accepted FineSignature == Signature")
	}
	o.Region.FineSignature = 64 // > MinWindow (32 in testOptions)
	if _, err := New(o); err == nil {
		t.Error("accepted FineSignature > MinWindow")
	}
}

// TestRefineStageChunks: refine filters the flat hit list in place in
// chunks on the worker pool, and must keep exactly the hits, in exactly
// the order, that one serial pass with each hit's own region's bound
// keeps — at every worker count, at list lengths around the chunk size,
// with query regions that have no fine signature (all their hits kept),
// targets without one (kept), and a fixed RefineEpsilon.
func TestRefineStageChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fine := func(dim int) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	qRegions := make([]region.Region, 5)
	for qi := range qRegions {
		qRegions[qi].Signature = fine(4)
		if qi != 2 {
			qRegions[qi].Fine = fine(16)
		}
	}
	core := &snapCore{images: make([]imageRecord, 40)}
	for i := range core.images {
		core.images[i].Regions = make([]region.Region, 6)
		for j := range core.images[i].Regions {
			if (i+j)%7 != 0 {
				core.images[i].Regions[j].Fine = fine(16)
			}
		}
	}
	snap := &shardSnapshot{core: core}
	for _, refineEps := range []float64{0, 1.15} {
		p := QueryParams{Epsilon: 0.5, Refine: true, RefineEpsilon: refineEps}
		for _, n := range []int{0, 1, 255, 256, 257, 700, 3000} {
			hits := make([]probeHit, n)
			for i := range hits {
				hits[i] = probeHit{image: rng.Intn(40), pair: match.Pair{Q: rng.Intn(5), T: rng.Intn(6)}}
			}
			var want []probeHit
			for _, h := range hits {
				qr, target := qRegions[h.pair.Q], core.images[h.image].Regions[h.pair.T]
				bound := p.RefineEpsilon
				if bound == 0 {
					bound = p.Epsilon * 2 // sqrt(16/4)
				}
				if qr.Fine != nil && target.Fine != nil && euclid(qr.Fine, target.Fine) > bound {
					continue
				}
				want = append(want, h)
			}
			if n >= 256 && (len(want) == n || len(want) == 0) {
				t.Fatalf("fixture: %d of %d hits kept, the filter went untested", len(want), n)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				what := fmt.Sprintf("RefineEpsilon=%v hits=%d workers=%d", refineEps, n, workers)
				tc := newTraceCollector(0)
				got, err := snap.refineStage(context.Background(), qRegions, slices.Clone(hits), p, workers, tc)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: refine kept %d hits, the serial filter %d, or in another order", what, len(got), len(want))
				}
				if tc.refineOut != len(want) {
					t.Fatalf("%s: refineOut %d, want %d", what, tc.refineOut, len(want))
				}
			}
		}
	}
}

// BenchmarkRefineStage times refine's chunked filter on 192-dimensional
// fine signatures (FineSignature 8) at one and two workers. A list
// shorter than two chunks is filtered by one task whatever the worker
// count.
func BenchmarkRefineStage(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	fine := func(dim int) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	qRegions := make([]region.Region, 8)
	for qi := range qRegions {
		qRegions[qi].Signature = fine(12)
		qRegions[qi].Fine = fine(192)
	}
	core := &snapCore{images: make([]imageRecord, 300)}
	for i := range core.images {
		core.images[i].Regions = make([]region.Region, 6)
		for j := range core.images[i].Regions {
			core.images[i].Regions[j].Fine = fine(192)
		}
	}
	snap := &shardSnapshot{core: core}
	p := QueryParams{Epsilon: 0.5, Refine: true, RefineEpsilon: 5.6}
	for _, n := range []int{256, 512, 4096} {
		hits := make([]probeHit, n)
		for i := range hits {
			hits[i] = probeHit{image: rng.Intn(300), pair: match.Pair{Q: rng.Intn(8), T: rng.Intn(6)}}
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("hits=%d/workers=%d", n, workers), func(b *testing.B) {
				buf := make([]probeHit, n)
				for i := 0; i < b.N; i++ {
					copy(buf, hits)
					if _, err := snap.refineStage(context.Background(), qRegions, buf, p, workers, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
