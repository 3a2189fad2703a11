package rstar

import (
	"fmt"
	"math/rand"
	"testing"

	"walrus/internal/store"
)

func benchRects(n, dim int) []Rect {
	rng := rand.New(rand.NewSource(2))
	out := make([]Rect, n)
	for i := range out {
		out[i] = randomRect(rng, dim)
	}
	return out
}

func BenchmarkInsert(b *testing.B) {
	for _, dim := range []int{2, 12} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rects := benchRects(2000, dim)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, _ := NewMemStore(dim, 16)
				tr, _ := New(s)
				for j, r := range rects {
					if err := tr.Insert(r, int64(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, dim := range []int{2, 12} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rects := benchRects(2000, dim)
			data := make([]int64, len(rects))
			for i := range data {
				data[i] = int64(i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, _ := NewMemStore(dim, 16)
				if _, err := BulkLoad(s, rects, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearch(b *testing.B) {
	const dim = 12
	rects := benchRects(5000, dim)
	s, _ := NewMemStore(dim, 16)
	data := make([]int64, len(rects))
	for i := range data {
		data[i] = int64(i)
	}
	tr, err := BulkLoad(s, rects, data)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchRects(64, dim)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)].Expand(0.085)
		if _, err := tr.SearchAll(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbePaged is the disk-side counterpart of BenchmarkSearch: a
// three-region query's worth of ball probes answered in one descent over
// pages scanned in place. allocs/op is the figure to watch — it must not
// follow the node count.
func BenchmarkProbePaged(b *testing.B) {
	const dim = 12
	tr, _, _ := pagedBulkTree(b, store.DefaultPageSize, dim, 5000, 512)
	probes := threeProbes(dim, 0.7)
	hits := 0
	emit := func(int, int64) { hits++ }
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Probe(probes, emit); err != nil {
			b.Fatal(err)
		}
	}
	if hits == 0 {
		b.Fatal("probes matched nothing")
	}
}

func BenchmarkNN(b *testing.B) {
	const dim = 12
	rects := benchRects(5000, dim)
	s, _ := NewMemStore(dim, 16)
	data := make([]int64, len(rects))
	for i := range data {
		data[i] = int64(i)
	}
	tr, err := BulkLoad(s, rects, data)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p := make([]float64, dim)
	for i := range p {
		p[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.NN(p, 10); err != nil {
			b.Fatal(err)
		}
	}
}
