package main

import (
	"context"
	"testing"

	"walrus"
)

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a := corpus{seed: 7, stream: 1, sizes: paperSizes}
	b := corpus{seed: 7, stream: 1, sizes: paperSizes}
	c := corpus{seed: 8, stream: 1, sizes: paperSizes}
	ha, err := a.hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := b.hash()
	hc, _ := c.hash()
	if ha != hb {
		t.Error("same seed, different corpus hash")
	}
	if ha == hc {
		t.Error("different seeds, same corpus hash")
	}
	for i := 0; i < 40; i++ {
		it := a.item(i)
		if it.ID != a.id(i) {
			t.Errorf("id(%d) = %s, item has %s", i, a.id(i), it.ID)
		}
		if categoryOf(it.ID) != string(it.Cat) {
			t.Errorf("category of %s does not parse back to %s", it.ID, it.Cat)
		}
	}
}

func TestVariantsFitAWindowAndKeepTheirLabel(t *testing.T) {
	cp := corpus{seed: 3, stream: 2, sizes: paperSizes}
	kinds := map[[2]int]bool{}
	for q := 0; q < 64; q++ {
		v, err := cp.variant(q, 50)
		if err != nil {
			t.Fatal(err)
		}
		if v.Image.W < 64 || v.Image.H < 64 {
			t.Errorf("variant %d is %dx%d: smaller than one window", q, v.Image.W, v.Image.H)
		}
		if err := v.Image.Validate(); err != nil {
			t.Errorf("variant %d: %v", q, err)
		}
		if categoryOf(v.ID) != string(v.Cat) {
			t.Errorf("variant id %s does not carry category %s", v.ID, v.Cat)
		}
		again, _ := cp.variant(q, 50)
		if again.ID != v.ID || again.area() != v.area() {
			t.Errorf("variant %d is not reproducible", q)
		}
		kinds[[2]int{v.Image.W, v.Image.H}] = true
	}
	if len(kinds) < 4 {
		t.Errorf("only %d distinct shapes in 64 variants: crops are not happening", len(kinds))
	}
}

// The oracle and the database must agree on a small collection, and a
// tampered result must be caught.
func TestOracleAgreesWithDatabase(t *testing.T) {
	cp := corpus{seed: 5, stream: 2, sizes: paperSizes}
	db, err := walrus.New(walrus.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	areas := map[string]int{}
	for _, it := range cp.batch(0, 40) {
		if err := db.Add(it.ID, it.Image); err != nil {
			t.Fatal(err)
		}
		areas[it.ID] = it.area()
	}
	orc, err := newOracle(db, db.IDs(), areas)
	if err != nil {
		t.Fatal(err)
	}
	p := queryParams()
	for _, id := range db.IDs()[:10] {
		got, _, err := db.QueryByID(context.Background(), id, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := orc.queryByID(id, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffMatches(got, want); d != "" {
			t.Errorf("QueryByID %s: %s", id, d)
		}
		if len(got) == 0 {
			t.Fatalf("QueryByID %s found nothing, not even itself", id)
		}
		if p := precisionAt10(matchIDs(got), categoryOf(id)); p < 0.1 || p > 1 {
			t.Errorf("precision %v outside [0.1, 1] though the image matches itself", p)
		}
		tampered := append([]walrus.Match(nil), got...)
		tampered[0].Similarity -= 0.01
		if diffMatches(tampered, want) == "" {
			t.Error("a changed similarity went unnoticed")
		}
		if diffMatches(got[1:], want) == "" {
			t.Error("a missing match went unnoticed")
		}
	}
	v, err := cp.variant(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.QueryContext(context.Background(), v.Image, p)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := newLayerProbe(newRecorder(), db.Options())
	if err != nil {
		t.Fatal(err)
	}
	regions, err := lp.extract(v.Image, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := orc.query(regions, v.area(), p)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMatches(got, want); d != "" {
		t.Errorf("pixel query: %s", d)
	}
	// The replayed sub-layer calls see what the extractor saw.
	if n := len(lp.clusters); n != 1 || int(lp.clusters[0]) != len(regions) {
		t.Errorf("replayed BIRCH found %v clusters, the extractor %d regions", lp.clusters, len(regions))
	}
}
