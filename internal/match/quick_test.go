package match

import (
	"math/rand"
	"testing"

	"walrus/internal/region"
)

// quickReference is the map-based quick scorer: every distinct region
// on each side unioned once into a heap bitmap.
func quickReference(qRegions, tRegions []region.Region, pairs []Pair, qArea, tArea int) Result {
	if len(pairs) == 0 {
		return Result{}
	}
	uq := region.NewBitmap(qRegions[pairs[0].Q].Bitmap.K)
	ut := region.NewBitmap(tRegions[pairs[0].T].Bitmap.K)
	seenQ := make(map[int]bool)
	seenT := make(map[int]bool)
	for _, p := range pairs {
		if !seenQ[p.Q] {
			seenQ[p.Q] = true
			uq.UnionWith(qRegions[p.Q].Bitmap)
		}
		if !seenT[p.T] {
			seenT[p.T] = true
			ut.UnionWith(tRegions[p.T].Bitmap)
		}
	}
	return Result{
		CoveredQ: uq.Fraction() * float64(qArea),
		CoveredT: ut.Fraction() * float64(tArea),
	}
}

// randomRegions builds n regions on a k×k grid, each covering a random
// rectangle.
func randomRegions(rng *rand.Rand, n, k int) []region.Region {
	out := make([]region.Region, n)
	for i := range out {
		x0, y0 := rng.Intn(k), rng.Intn(k)
		x1, y1 := x0+1+rng.Intn(k-x0), y0+1+rng.Intn(k-y0)
		out[i] = makeRegion(k, []float64{float64(i)}, block(x0, y0, x1, y1))
	}
	return out
}

// TestScoreQuickAnyPairOrder: the quick core skips only unions that
// cannot change its bitmaps, so the covered areas of ScoreTrusted (the
// database's entry) and of Score must match the map-based reference bit
// for bit whatever the pair order — shuffled, with duplicates, with pairs
// repeated back to back, with query regions revisited out of order — on
// grids of 1, 3, 8, 16, 17 and 32 cells a side (one stack word, the
// 16×16 grid's four, and the heap beyond) and with more than 64 and more
// than 256 target regions.
func TestScoreQuickAnyPairOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ k, nq, nt int }{
		{1, 3, 5},
		{16, 6, 20},
		{16, 9, 70},
		{16, 4, 300},
		{8, 5, 300},
		{17, 7, 40},
		{32, 12, 90},
		{32, 3, 270},
		{3, 2, 3},
	} {
		qRegions := randomRegions(rng, tc.nq, tc.k)
		tRegions := randomRegions(rng, tc.nt, tc.k)
		for trial := 0; trial < 25; trial++ {
			pairs := make([]Pair, 1+rng.Intn(3*tc.nt))
			for i := range pairs {
				pairs[i] = Pair{Q: rng.Intn(tc.nq), T: rng.Intn(tc.nt)}
			}
			// Duplicate a stretch of pairs out of place, and repeat some
			// back to back.
			for i := 0; i < len(pairs)/4; i++ {
				pairs[rng.Intn(len(pairs))] = pairs[rng.Intn(len(pairs))]
			}
			for i := 1; i < len(pairs); i += 5 {
				pairs[i] = pairs[i-1]
			}
			want := quickReference(qRegions, tRegions, pairs, 1200, 900)
			wantSim := normalize(want.CoveredQ, want.CoveredT, 1200, 900, SumAreas)
			for shuffle := 0; shuffle < 3; shuffle++ {
				trusted, err := ScoreTrusted(qRegions, tRegions, pairs, 1200, 900, Options{Algorithm: Quick})
				if err != nil {
					t.Fatal(err)
				}
				checked, err := Score(qRegions, tRegions, pairs, 1200, 900, Options{Algorithm: Quick})
				if err != nil {
					t.Fatal(err)
				}
				for _, got := range []Result{trusted, checked} {
					if got.CoveredQ != want.CoveredQ || got.CoveredT != want.CoveredT || got.Similarity != wantSim || got.Pairs != nil {
						t.Fatalf("K=%d %d/%d regions, trial %d: got covered %v/%v similarity %v, reference %v/%v %v",
							tc.k, tc.nq, tc.nt, trial, got.CoveredQ, got.CoveredT, got.Similarity, want.CoveredQ, want.CoveredT, wantSim)
					}
				}
				rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			}
		}
	}
}

// TestScoreQuickAllocations: on the default 16×16 grid the quick scorer
// works entirely on the stack, however many target regions it unions.
func TestScoreQuickAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qRegions := randomRegions(rng, 8, 16)
	tRegions := randomRegions(rng, 400, 16)
	pairs := make([]Pair, 60)
	for i := range pairs {
		pairs[i] = Pair{Q: rng.Intn(8), T: rng.Intn(400)}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Score(qRegions, tRegions, pairs, 1000, 1000, Options{Algorithm: Quick}); err != nil {
			t.Fatal(err)
		}
		if _, err := ScoreTrusted(qRegions, tRegions, pairs, 1000, 1000, Options{Algorithm: Quick}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("quick Score allocates %v times, want 0", allocs)
	}
}

func BenchmarkQuickCover(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	qRegions := randomRegions(rng, 8, 16)
	tRegions := randomRegions(rng, 12, 16)
	pairs := make([]Pair, 10)
	for i := range pairs {
		pairs[i] = Pair{Q: i * 8 / len(pairs), T: rng.Intn(12)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ScoreTrusted(qRegions, tRegions, pairs, 1000, 1000, Options{Algorithm: Quick}); err != nil {
			b.Fatal(err)
		}
	}
}
