// Benchmarks regenerating the measurements behind every table and figure
// of the paper's evaluation (Section 6). Run with:
//
//	go test -bench=. -benchmem
//
// Figure 6(a)/(b): naive vs dynamic-programming sliding-window signature
// computation; Table 1: query cost as epsilon grows; Figures 7/8: query
// cost of the WBIIS baseline vs WALRUS; plus ablation benches for the
// design choices called out in DESIGN.md (matcher algorithm, slide step,
// node store, color space).
package walrus_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"walrus"
	"walrus/internal/colorspace"
	"walrus/internal/dataset"
	"walrus/internal/experiments"
	"walrus/internal/match"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/wavelet"
	"walrus/internal/wbiis"
)

// benchPlane is the 256×256 image of the paper's Figure 6 setup.
var benchPlane = func() []float64 {
	rng := rand.New(rand.NewSource(42))
	p := make([]float64, 256*256)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}()

// BenchmarkFig6aDP measures the dynamic programming algorithm as the
// window size grows (Figure 6(a), DP series): 256×256 image, 2×2
// signatures, slide 1.
func BenchmarkFig6aDP(b *testing.B) {
	for win := 2; win <= 128; win *= 2 {
		b.Run(fmt.Sprintf("window=%d", win), func(b *testing.B) {
			params := wavelet.SlidingParams{MaxWindow: win, Signature: 2, Step: 1}
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.ComputeSlidingWindows(benchPlane, 256, 256, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6aNaive is Figure 6(a)'s naive series: each point computes
// only the windows of that size, the literal naive scheme.
func BenchmarkFig6aNaive(b *testing.B) {
	for win := 2; win <= 128; win *= 2 {
		b.Run(fmt.Sprintf("window=%d", win), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.NaiveWindowSignatures(benchPlane, 256, 256, win, 2, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6bDP measures the DP algorithm as the signature size grows
// (Figure 6(b)): 256×256 image, 128×128 windows.
func BenchmarkFig6bDP(b *testing.B) {
	for sig := 2; sig <= 32; sig *= 2 {
		b.Run(fmt.Sprintf("signature=%d", sig), func(b *testing.B) {
			params := wavelet.SlidingParams{MaxWindow: 128, Signature: sig, Step: 1}
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.ComputeSlidingWindows(benchPlane, 256, 256, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6bNaive is Figure 6(b)'s naive series (roughly flat in the
// signature size, as in the paper).
func BenchmarkFig6bNaive(b *testing.B) {
	for sig := 2; sig <= 32; sig *= 2 {
		b.Run(fmt.Sprintf("signature=%d", sig), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.NaiveWindowSignatures(benchPlane, 256, 256, 128, sig, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Shared retrieval fixtures (built once; benchmarks are read-only).

var (
	fixtureOnce sync.Once
	fixtureDS   *dataset.Dataset
	fixtureDB   *walrus.DB
	fixtureErr  error
)

func retrievalFixture(b *testing.B) (*dataset.Dataset, *walrus.DB) {
	b.Helper()
	fixtureOnce.Do(func() {
		opts := dataset.DefaultOptions()
		opts.PerCategory = 10
		fixtureDS, fixtureErr = dataset.Generate(opts)
		if fixtureErr != nil {
			return
		}
		cfg := experiments.PaperWalrusConfig()
		fixtureDB, fixtureErr = experiments.BuildWalrusDB(fixtureDS, cfg.Options)
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureDS, fixtureDB
}

// BenchmarkTable1Query measures query cost at each of Table 1's epsilons
// (response time, the paper's first column).
func BenchmarkTable1Query(b *testing.B) {
	ds, db := retrievalFixture(b)
	query := ds.ByCategory(dataset.Flowers)[0]
	for _, eps := range []float64{0.05, 0.06, 0.07, 0.08, 0.09} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			p := walrus.DefaultQueryParams()
			p.Epsilon = eps
			for i := 0; i < b.N; i++ {
				if _, _, err := db.QueryContext(context.Background(), query.Image, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8WalrusQuery is the per-query cost behind Figure 8.
func BenchmarkFig8WalrusQuery(b *testing.B) {
	ds, db := retrievalFixture(b)
	query := ds.ByCategory(dataset.Flowers)[0]
	p := walrus.DefaultQueryParams()
	p.Limit = 14
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.QueryContext(context.Background(), query.Image, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7WBIISQuery is the per-query cost behind Figure 7.
func BenchmarkFig7WBIISQuery(b *testing.B) {
	ds, _ := retrievalFixture(b)
	ix, err := wbiis.New(wbiis.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, it := range ds.Items {
		if err := ix.Add(it.ID, it.Image); err != nil {
			b.Fatal(err)
		}
	}
	query := ds.ByCategory(dataset.Flowers)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(query.Image, 14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionExtraction is the §6.6 cost: decomposing one image into
// regions (YCC vs RGB).
func BenchmarkRegionExtraction(b *testing.B) {
	ds, _ := retrievalFixture(b)
	img := ds.ByCategory(dataset.Flowers)[0].Image
	for _, space := range []colorspace.Space{colorspace.YCC, colorspace.RGB} {
		b.Run(space.String(), func(b *testing.B) {
			opts := region.DefaultOptions()
			opts.Space = space
			ext, err := region.NewExtractor(opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := ext.Extract(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatcherAblation compares the quick, greedy and exact image
// matchers on the same query (DESIGN.md ablation).
func BenchmarkMatcherAblation(b *testing.B) {
	ds, db := retrievalFixture(b)
	query := ds.ByCategory(dataset.Flowers)[0]
	for _, alg := range []match.Algorithm{match.Quick, match.Greedy, match.Exact, match.Assignment} {
		b.Run(alg.String(), func(b *testing.B) {
			p := walrus.DefaultQueryParams()
			p.Matcher = alg
			for i := 0; i < b.N; i++ {
				if _, _, err := db.QueryContext(context.Background(), query.Image, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSlideStepAblation measures indexing cost as the slide step
// grows (DESIGN.md ablation: t trades indexing time for window density).
func BenchmarkSlideStepAblation(b *testing.B) {
	ds, _ := retrievalFixture(b)
	img := ds.ByCategory(dataset.Flowers)[0].Image
	for _, step := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("t=%d", step), func(b *testing.B) {
			opts := region.DefaultOptions()
			opts.Step = step
			ext, err := region.NewExtractor(opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := ext.Extract(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodeStoreAblation compares R*-tree insert+search throughput on
// the in-memory vs the paged (disk) node store.
func BenchmarkNodeStoreAblation(b *testing.B) {
	const dim = 12
	makeRects := func(n int) []rstar.Rect {
		rng := rand.New(rand.NewSource(7))
		rects := make([]rstar.Rect, n)
		for i := range rects {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.Float64()
			}
			rects[i] = rstar.Point(p)
		}
		return rects
	}
	rects := makeRects(2000)
	run := func(b *testing.B, mkStore func(b *testing.B) rstar.NodeStore) {
		for i := 0; i < b.N; i++ {
			tr, err := rstar.New(mkStore(b))
			if err != nil {
				b.Fatal(err)
			}
			for j, r := range rects {
				if err := tr.Insert(r, int64(j)); err != nil {
					b.Fatal(err)
				}
			}
			for j := 0; j < 100; j++ {
				if _, err := tr.SearchAll(rects[j].Expand(0.085)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("mem", func(b *testing.B) {
		run(b, func(b *testing.B) rstar.NodeStore {
			s, err := rstar.NewMemStore(dim, 16)
			if err != nil {
				b.Fatal(err)
			}
			return s
		})
	})
	b.Run("paged", func(b *testing.B) {
		run(b, func(b *testing.B) rstar.NodeStore {
			pg, err := newBenchPager(b)
			if err != nil {
				b.Fatal(err)
			}
			return pg
		})
	})
}

// BenchmarkIndexAdd measures end-to-end image indexing throughput.
func BenchmarkIndexAdd(b *testing.B) {
	ds, _ := retrievalFixture(b)
	imgs := ds.Items[:10]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := walrus.New(walrus.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range imgs {
			if err := db.Add(it.ID, it.Image); err != nil {
				b.Fatal(err)
			}
		}
	}
}
