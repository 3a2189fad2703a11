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

// TestScoreQuickAnyPairOrder: the quick scorer skips only unions that
// cannot change its bitmaps, so its covered areas must match the
// map-based reference bit for bit whatever the pair order — shuffled,
// with duplicates, with query regions revisited out of order — on the
// stack-sized grid and target set and on the heap fallbacks beyond them
// (more than 64 and 256 target regions, K > 16).
func TestScoreQuickAnyPairOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ k, nq, nt int }{
		{16, 6, 20},
		{16, 9, 70},
		{8, 5, 300},
		{17, 7, 40},
		{32, 12, 90},
		{3, 2, 3},
	} {
		qRegions := randomRegions(rng, tc.nq, tc.k)
		tRegions := randomRegions(rng, tc.nt, tc.k)
		for trial := 0; trial < 25; trial++ {
			pairs := make([]Pair, 1+rng.Intn(3*tc.nt))
			for i := range pairs {
				pairs[i] = Pair{Q: rng.Intn(tc.nq), T: rng.Intn(tc.nt)}
			}
			// Duplicate a stretch of pairs out of place.
			for i := 0; i < len(pairs)/4; i++ {
				pairs[rng.Intn(len(pairs))] = pairs[rng.Intn(len(pairs))]
			}
			want := quickReference(qRegions, tRegions, pairs, 1200, 900)
			for shuffle := 0; shuffle < 3; shuffle++ {
				got := scoreQuick(qRegions, tRegions, pairs, 1200, 900)
				if got.CoveredQ != want.CoveredQ || got.CoveredT != want.CoveredT || got.Pairs != nil {
					t.Fatalf("K=%d %d/%d regions, trial %d: got covered %v/%v, reference %v/%v",
						tc.k, tc.nq, tc.nt, trial, got.CoveredQ, got.CoveredT, want.CoveredQ, want.CoveredT)
				}
				rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			}
		}
	}
}

// TestScoreQuickAllocations: on the default 16×16 grid with at most 256
// target regions the quick scorer works entirely on the stack.
func TestScoreQuickAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qRegions := randomRegions(rng, 8, 16)
	tRegions := randomRegions(rng, 200, 16)
	pairs := make([]Pair, 60)
	for i := range pairs {
		pairs[i] = Pair{Q: rng.Intn(8), T: rng.Intn(200)}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Score(qRegions, tRegions, pairs, 1000, 1000, Options{Algorithm: Quick}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("quick Score allocates %v times, want 0", allocs)
	}
}
