package region

import (
	"math/rand"
	"testing"

	"walrus/internal/dataset"
)

// BenchmarkExtract times one hot Extract of a paper-size 128×85 scene
// with the default options: the same image every iteration, so its
// pixels stay in cache and the figure is the extraction's own cost.
func BenchmarkExtract(b *testing.B) {
	ext, err := NewExtractor(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	im := dataset.Render(dataset.Categories()[0], rand.New(rand.NewSource(35)), 128, 85)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(im); err != nil {
			b.Fatal(err)
		}
	}
}
