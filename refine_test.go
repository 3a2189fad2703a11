package walrus

import (
	"context"
	"testing"

	"walrus/internal/imgio"
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
