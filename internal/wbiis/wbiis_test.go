package wbiis

import (
	"math/rand"
	"testing"

	"walrus/internal/imgio"
)

func colorImage(r, g, b float64) *imgio.Image {
	im := imgio.New(96, 128, 3)
	im.FillRGB(r, g, b)
	return im
}

func noisyImage(seed int64) *imgio.Image {
	rng := rand.New(rand.NewSource(seed))
	im := imgio.New(128, 96, 3)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

func TestNewValidation(t *testing.T) {
	o := DefaultOptions()
	o.Beta = 0
	if _, err := New(o); err == nil {
		t.Error("accepted Beta 0")
	}
	o = DefaultOptions()
	o.Refine = 0
	if _, err := New(o); err == nil {
		t.Error("accepted Refine 0")
	}
}

func TestSelfQueryRanksFirst(t *testing.T) {
	ix, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	imgs := map[string]*imgio.Image{
		"red":   colorImage(0.9, 0.1, 0.1),
		"green": colorImage(0.1, 0.8, 0.15),
		"blue":  colorImage(0.1, 0.2, 0.9),
		"noise": noisyImage(1),
	}
	for id, im := range imgs {
		if err := ix.Add(id, im); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for id, im := range imgs {
		matches, err := ix.Query(im, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 || matches[0].ID != id {
			t.Fatalf("query %q: best match %+v", id, matches)
		}
		if matches[0].Distance > 1e-9 {
			t.Fatalf("self distance = %v", matches[0].Distance)
		}
	}
}

func TestQueryOrdersByVisualSimilarity(t *testing.T) {
	ix, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("darkred", colorImage(0.7, 0.1, 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("blue", colorImage(0.1, 0.1, 0.9)); err != nil {
		t.Fatal(err)
	}
	matches, err := ix.Query(colorImage(0.8, 0.12, 0.1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].ID != "darkred" {
		t.Fatalf("expected darkred first, got %+v", matches)
	}
	if matches[0].Distance >= matches[1].Distance {
		t.Fatal("distances not ordered")
	}
}

// TestWholeImageSignatureFailsOnTranslation documents the baseline's known
// weakness (the reason WALRUS exists): an object moved to the other corner
// changes the single signature substantially.
func TestWholeImageSignatureFailsOnTranslation(t *testing.T) {
	obj := func(x, y int) *imgio.Image {
		im := imgio.New(128, 128, 3)
		im.FillRGB(0.2, 0.6, 0.2)
		for yy := y; yy < y+40; yy++ {
			for xx := x; xx < x+40; xx++ {
				im.SetRGB(xx, yy, 0.9, 0.1, 0.1)
			}
		}
		return im
	}
	ix, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("same-pos", obj(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("moved", obj(80, 80)); err != nil {
		t.Fatal(err)
	}
	matches, err := ix.Query(obj(8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].ID != "same-pos" {
		t.Fatalf("best match %+v", matches[0])
	}
	// The moved object scores strictly worse despite identical content.
	if matches[1].Distance <= matches[0].Distance {
		t.Fatal("translation did not hurt the whole-image signature")
	}
}

func TestQueryEdgeCases(t *testing.T) {
	ix, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m, err := ix.Query(colorImage(1, 1, 1), 0); err != nil || m != nil {
		t.Fatalf("k=0: %v, %v", m, err)
	}
	if m, err := ix.Query(colorImage(1, 1, 1), 5); err != nil || len(m) != 0 {
		t.Fatalf("empty index: %v, %v", m, err)
	}
	if err := ix.Add("gray", imgio.New(64, 64, 1)); err == nil {
		t.Error("Add accepted 1-channel image")
	}
}

func TestSmallImagesAreRescaled(t *testing.T) {
	ix, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tiny := imgio.New(16, 24, 3)
	tiny.FillRGB(0.3, 0.6, 0.9)
	if err := ix.Add("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	matches, err := ix.Query(tiny, 1)
	if err != nil || len(matches) != 1 || matches[0].ID != "tiny" {
		t.Fatalf("tiny image round trip: %v, %v", matches, err)
	}
}

// Len returns the number of indexed images.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sigs)
}
