package match

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"walrus/internal/region"
)

// boundInputs computes Bound's arguments from a pair set the way the
// database does: the cells of the union of the query regions the pairs
// name, and the summed bit counts of the distinct target regions.
func boundInputs(qRegions, tRegions []region.Region, pairs []Pair) (cellsQ, cellsT int) {
	if len(pairs) == 0 {
		return 0, 0
	}
	u := region.NewBitmap(qRegions[pairs[0].Q].Bitmap.K)
	seenQ, seenT := map[int]bool{}, map[int]bool{}
	for _, p := range pairs {
		if !seenQ[p.Q] {
			seenQ[p.Q] = true
			u.UnionWith(qRegions[p.Q].Bitmap)
		}
		if !seenT[p.T] {
			seenT[p.T] = true
			cellsT += tRegions[p.T].Bitmap.Count()
		}
	}
	return u.Count(), cellsT
}

// scatterRegions builds n regions on a k×k grid, each covering a random
// set of cells with density d, so unions overlap irregularly.
func scatterRegions(rng *rand.Rand, n, k int, d float64) []region.Region {
	out := make([]region.Region, n)
	for i := range out {
		var cells [][2]int
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				if rng.Float64() < d {
					cells = append(cells, [2]int{x, y})
				}
			}
		}
		out[i] = makeRegion(k, []float64{float64(i)}, cells)
	}
	return out
}

// checkScoreBound scores one random instance drawn from seed with every
// matcher and denominator and fails if a similarity exceeds its bound.
func checkScoreBound(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := []int{4, 16, 24}[rng.Intn(3)]
	nq, nt := 1+rng.Intn(6), 1+rng.Intn(8)
	var qRegions, tRegions []region.Region
	if rng.Intn(2) == 0 {
		qRegions, tRegions = randomRegions(rng, nq, k), randomRegions(rng, nt, k)
	} else {
		qRegions, tRegions = scatterRegions(rng, nq, k, rng.Float64()), scatterRegions(rng, nt, k, rng.Float64())
	}
	// Up to 14 pairs, duplicates included: the exact matcher's search is
	// exponential in them.
	pairs := make([]Pair, 1+rng.Intn(14))
	for i := range pairs {
		pairs[i] = Pair{Q: rng.Intn(nq), T: rng.Intn(nt)}
	}
	qArea, tArea := 1+rng.Intn(200000), 1+rng.Intn(200000)
	cellsQ, cellsT := boundInputs(qRegions, tRegions, pairs)
	for _, alg := range []Algorithm{Quick, Greedy, Exact, Assignment} {
		for _, d := range []Denominator{SumAreas, QueryOnly, TwiceSmaller} {
			opts := Options{Algorithm: alg, Denominator: d}
			res, err := Score(qRegions, tRegions, pairs, qArea, tArea, opts)
			if err != nil {
				t.Fatal(err)
			}
			if b := Bound(cellsQ, cellsT, k, qArea, tArea, opts); !(b >= res.Similarity) {
				t.Fatalf("seed %d, k=%d, %v, denominator %d: bound %v (%x) below similarity %v (%x); pairs %v",
					seed, k, alg, d, b, math.Float64bits(b), res.Similarity, math.Float64bits(res.Similarity), pairs)
			}
		}
	}
}

// FuzzScoreBound: for random grids, regions, pairs and areas, Bound is at
// least the similarity of every matcher under every denominator.
func FuzzScoreBound(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkScoreBound(t, seed)
	})
}

// TestScoreBound runs FuzzScoreBound's check over a fixed range of seeds.
func TestScoreBound(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkScoreBound(t, seed)
	}
}

// TestScoreBoundExactSlack: on a grid whose cell count is not a power of
// two, the exact matcher's search adds one rounded covered area per
// chosen pair, and the sum can exceed covered() of the union it covers —
// the bound without exactSlack would sit below the score. Bound must
// still hold there, and the slack must stay far below one cell's area.
func TestScoreBoundExactSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 24
	found := 0
	for trial := 0; trial < 20000 && found < 20; trial++ {
		qRegions, tRegions := scatterRegions(rng, 4, k, 0.3), scatterRegions(rng, 4, k, 0.3)
		pairs := []Pair{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
		qArea, tArea := 1+rng.Intn(200000), 1+rng.Intn(200000)
		res, err := Score(qRegions, tRegions, pairs, qArea, tArea, Options{Algorithm: Exact, Denominator: QueryOnly})
		if err != nil {
			t.Fatal(err)
		}
		cellsQ, cellsT := boundInputs(qRegions, tRegions, pairs)
		if res.CoveredQ <= covered(cellsQ, k, qArea) {
			continue
		}
		found++
		opts := Options{Algorithm: Exact, Denominator: QueryOnly}
		if b := Bound(cellsQ, cellsT, k, qArea, tArea, opts); b < res.Similarity {
			t.Fatalf("trial %d: bound %v below exact similarity %v", trial, b, res.Similarity)
		}
		if over := res.CoveredQ - covered(cellsQ, k, qArea); over > float64(qArea)/(k*k)/1e6 {
			t.Fatalf("trial %d: exact covered area %v exceeds the union's by %v", trial, res.CoveredQ, over)
		}
	}
	if found == 0 {
		t.Fatal("no instance where the exact search's sum exceeds the union's covered area; the slack is untested")
	}
}

// TestScoreBoundSaturates: the target side is capped at the bits a
// bitmap's words hold, and an unknown algorithm is bounded by +Inf, so
// it is scored and refused as Score refuses it.
func TestScoreBoundSaturates(t *testing.T) {
	opts := Options{Algorithm: Quick, Denominator: SumAreas}
	if got, want := Bound(256, 10*256, 16, 100, 300, opts), 1.0; got != want {
		t.Errorf("full cover, capped target: bound %v, want %v", got, want)
	}
	if got := Bound(0, 0, 16, 100, 300, opts); got != 0 {
		t.Errorf("nothing covered: bound %v, want 0", got)
	}
	if got := Bound(3, 3, 16, 100, 300, Options{Algorithm: Algorithm(9)}); !math.IsInf(got, 1) {
		t.Errorf("unknown algorithm: bound %v, want +Inf", got)
	}
	// k = 3 keeps 9 cells in a 64-bit word: bits past the grid, which no
	// extracted bitmap sets, are counted by the scorers all the same.
	b := region.Bitmap{K: 3, Words: []uint64{math.MaxUint64}}
	q := []region.Region{{Signature: []float64{0}, Bitmap: b}}
	res, err := Score(q, q, []Pair{{0, 0}}, 100, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := Bound(bits.OnesCount64(b.Words[0]), bits.OnesCount64(b.Words[0]), 3, 100, 100, opts); got < res.Similarity {
		t.Errorf("padding bits: bound %v below similarity %v", got, res.Similarity)
	}
}
