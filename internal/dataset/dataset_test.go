package dataset

import (
	"math/rand"
	"testing"

	"walrus/internal/imgio"
)

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Seed: 7, PerCategory: 2}
	a, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i].ID != b.Items[i].ID {
			t.Fatalf("ids differ at %d", i)
		}
		d, err := imgio.MeanAbsDiff(a.Items[i].Image, b.Items[i].Image)
		if err != nil || d != 0 {
			t.Fatalf("item %d not deterministic: %v %v", i, d, err)
		}
	}
}

func TestGenerateCoversCategoriesAndSizes(t *testing.T) {
	d, err := Generate(Options{Seed: 1, PerCategory: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(Categories()); len(d.Items) != want {
		t.Fatalf("generated %d items, want %d", len(d.Items), want)
	}
	sizes := DefaultOptions().Sizes
	for _, it := range d.Items {
		if err := it.Image.Validate(); err != nil {
			t.Fatalf("%s: %v", it.ID, err)
		}
		okSize := false
		for _, s := range sizes {
			if it.Image.W == s[0] && it.Image.H == s[1] {
				okSize = true
			}
		}
		if !okSize {
			t.Fatalf("%s has unexpected size %dx%d", it.ID, it.Image.W, it.Image.H)
		}
		for _, v := range it.Image.Pix {
			if v < 0 || v > 1 {
				t.Fatalf("%s has out-of-range sample %v", it.ID, v)
			}
		}
		if CategoryOf(it.ID) != it.Category {
			t.Fatalf("CategoryOf(%s) = %s, want %s", it.ID, CategoryOf(it.ID), it.Category)
		}
	}
	for _, c := range Categories() {
		if got := len(d.ByCategory(c)); got != 3 {
			t.Fatalf("category %s has %d items", c, got)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Options{PerCategory: 0}); err == nil {
		t.Error("accepted PerCategory 0")
	}
	if _, err := Generate(Options{PerCategory: 1, Sizes: [][2]int{{4, 4}}}); err == nil {
		t.Error("accepted tiny size")
	}
}

func TestGenerateRestrictedCategories(t *testing.T) {
	d, err := Generate(Options{Seed: 2, PerCategory: 2, Categories: []Category{Flowers, Ocean}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Items) != 4 {
		t.Fatalf("%d items", len(d.Items))
	}
	if len(d.ByCategory(Bricks)) != 0 {
		t.Fatal("unexpected bricks")
	}
}

// TestCategoryVisualSeparation: mean colors of contrasting categories
// differ substantially, so retrieval has signal to work with.
func TestCategoryVisualSeparation(t *testing.T) {
	d, err := Generate(Options{Seed: 4, PerCategory: 5})
	if err != nil {
		t.Fatal(err)
	}
	meanChannel := func(cat Category, c int) float64 {
		items := d.ByCategory(cat)
		sum, n := 0.0, 0
		for _, it := range items {
			for _, v := range it.Image.Plane(c) {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	// Flowers are green-dominant, oceans blue-dominant, snow bright.
	if meanChannel(Flowers, 1) <= meanChannel(Flowers, 2) {
		t.Error("flowers not green-dominant")
	}
	if meanChannel(Ocean, 2) <= meanChannel(Ocean, 0) {
		t.Error("ocean not blue-dominant")
	}
	if meanChannel(Snow, 0) < 0.7 {
		t.Error("snow not bright")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, err := Generate(Options{Seed: 5, PerCategory: 1, Categories: []Category{Flowers, Bricks}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Items) != len(d.Items) {
		t.Fatalf("loaded %d items, want %d", len(back.Items), len(d.Items))
	}
	byID := make(map[string]Item, len(d.Items))
	for _, it := range d.Items {
		byID[it.ID] = it
	}
	for _, it := range back.Items {
		orig, ok := byID[it.ID]
		if !ok || orig.Category != it.Category {
			t.Fatalf("item %s category mismatch", it.ID)
		}
		diff, err := imgio.MeanAbsDiff(orig.Image, it.Image)
		if err != nil {
			t.Fatal(err)
		}
		// PPM is 8-bit, so round-tripping loses at most half a level.
		if diff > 1.0/255 {
			t.Fatalf("%s drifted by %v", it.ID, diff)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load succeeded on empty dir")
	}
}

func TestRenderUnknownCategory(t *testing.T) {
	im := Render(Category("mystery"), rand.New(rand.NewSource(1)), 64, 64)
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
}
