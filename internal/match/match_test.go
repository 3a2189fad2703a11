package match

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"walrus/internal/region"
)

// makeRegion builds a region whose bitmap covers the given cells of a k×k
// grid and whose signature is sig.
func makeRegion(k int, sig []float64, cells [][2]int) region.Region {
	r := region.Region{
		Signature: sig,
		Min:       append([]float64(nil), sig...),
		Max:       append([]float64(nil), sig...),
		Bitmap:    region.NewBitmap(k),
		Windows:   1,
	}
	for _, c := range cells {
		r.Bitmap.Set(c[0], c[1])
	}
	return r
}

// block returns the cells of the rectangle [x0,x1) x [y0,y1).
func block(x0, y0, x1, y1 int) [][2]int {
	var out [][2]int
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			out = append(out, [2]int{x, y})
		}
	}
	return out
}

func TestScoreValidation(t *testing.T) {
	q := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 2, 2))}
	tr := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 2, 2))}
	if _, err := Score(q, tr, []Pair{{0, 0}}, 0, 100, Options{}); err == nil {
		t.Error("accepted zero query area")
	}
	if _, err := Score(q, tr, []Pair{{1, 0}}, 100, 100, Options{}); err == nil {
		t.Error("accepted out-of-range pair")
	}
	if _, err := Score(q, tr, nil, 100, 100, Options{Algorithm: Algorithm(9)}); err == nil {
		t.Error("accepted unknown algorithm")
	}
	// A target on another grid, and one on the same K with the wrong word
	// count, are refused for every matcher rather than scored.
	other := []region.Region{makeRegion(8, []float64{0}, block(0, 0, 2, 2))}
	short := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 2, 2))}
	short[0].Bitmap.Words = append(short[0].Bitmap.Words, 0)
	for _, alg := range []Algorithm{Quick, Greedy, Exact, Assignment} {
		for name, target := range map[string][]region.Region{"other grid": other, "word count": short} {
			if _, err := Score(q, target, []Pair{{0, 0}}, 100, 100, Options{Algorithm: alg}); err == nil {
				t.Errorf("%v: accepted a target bitmap with a wrong %s", alg, name)
			}
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if Quick.String() != "quick" || Greedy.String() != "greedy" || Exact.String() != "exact" {
		t.Fatal("Algorithm.String wrong")
	}
}

func TestScoreNoPairs(t *testing.T) {
	res, err := Score(nil, nil, nil, 100, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Similarity != 0 {
		t.Fatalf("empty similarity = %v", res.Similarity)
	}
}

// TestQuickFullCover: two identical full-cover regions give similarity 1.
func TestQuickFullCover(t *testing.T) {
	full := block(0, 0, 4, 4)
	q := []region.Region{makeRegion(4, []float64{0}, full)}
	tr := []region.Region{makeRegion(4, []float64{0}, full)}
	res, err := Score(q, tr, []Pair{{0, 0}}, 128*128, 128*128, Options{Algorithm: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Similarity-1) > 1e-12 {
		t.Fatalf("similarity = %v, want 1", res.Similarity)
	}
}

// TestDefinition43Arithmetic: a half-covered query and quarter-covered
// target of equal area score (0.5+0.25)/2.
func TestDefinition43Arithmetic(t *testing.T) {
	q := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 4, 2))}  // 8/16
	tr := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 2, 2))} // 4/16
	res, err := Score(q, tr, []Pair{{0, 0}}, 1000, 1000, Options{Algorithm: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if want := (0.5*1000 + 0.25*1000) / 2000; math.Abs(res.Similarity-want) > 1e-12 {
		t.Fatalf("similarity = %v, want %v", res.Similarity, want)
	}
}

func TestDenominatorVariants(t *testing.T) {
	q := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 4, 2))}
	tr := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 4, 4))}
	// Query area 100 (half covered = 50), target area 400 (fully covered).
	res, err := Score(q, tr, []Pair{{0, 0}}, 100, 400, Options{Algorithm: Quick, Denominator: QueryOnly})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Similarity-0.5) > 1e-12 {
		t.Fatalf("QueryOnly = %v, want 0.5", res.Similarity)
	}
	res, err = Score(q, tr, []Pair{{0, 0}}, 100, 400, Options{Algorithm: Quick, Denominator: TwiceSmaller})
	if err != nil {
		t.Fatal(err)
	}
	// (50+400)/(2*100) clamps to 1.
	if res.Similarity != 1 {
		t.Fatalf("TwiceSmaller = %v, want 1", res.Similarity)
	}
	res, err = Score(q, tr, []Pair{{0, 0}}, 100, 400, Options{Algorithm: Quick, Denominator: SumAreas})
	if err != nil {
		t.Fatal(err)
	}
	if want := (50.0 + 400.0) / 500.0; math.Abs(res.Similarity-want) > 1e-12 {
		t.Fatalf("SumAreas = %v, want %v", res.Similarity, want)
	}
}

// TestGreedyOneToOne: a query region matching many target regions uses
// each region once under Greedy, unlike Quick which unions all targets.
func TestGreedyOneToOne(t *testing.T) {
	q := []region.Region{makeRegion(4, []float64{0}, block(0, 0, 1, 1))} // tiny query coverage
	tr := []region.Region{
		makeRegion(4, []float64{0}, block(0, 0, 2, 4)),
		makeRegion(4, []float64{0}, block(2, 0, 4, 4)),
	}
	pairs := []Pair{{0, 0}, {0, 1}}
	quickRes, err := Score(q, tr, pairs, 100, 100, Options{Algorithm: Quick})
	if err != nil {
		t.Fatal(err)
	}
	greedyRes, err := Score(q, tr, pairs, 100, 100, Options{Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	// Quick covers the whole target; greedy may only use one pair since the
	// single query region is consumed by the first.
	if quickRes.CoveredT != 100 {
		t.Fatalf("quick CoveredT = %v, want 100", quickRes.CoveredT)
	}
	if greedyRes.CoveredT >= quickRes.CoveredT {
		t.Fatalf("greedy should cover less than quick here: %v vs %v", greedyRes.CoveredT, quickRes.CoveredT)
	}
	if len(greedyRes.Pairs) != 1 {
		t.Fatalf("greedy used %d pairs, want 1", len(greedyRes.Pairs))
	}
}

// TestExactBeatsGreedyOnAdversarialInstance: classic greedy trap — the
// largest pair blocks two medium pairs whose union is bigger.
func TestExactBeatsGreedyOnAdversarialInstance(t *testing.T) {
	// Query regions: q0 covers 10 cells, q1 covers rows 0-1 (8 cells), q2
	// covers rows 2-3 (8 cells). Targets mirror them.
	q := []region.Region{
		makeRegion(4, []float64{0}, block(0, 0, 4, 2)), // 8 cells: rows 0-1
		makeRegion(4, []float64{0}, block(0, 2, 4, 4)), // 8 cells: rows 2-3
		makeRegion(4, []float64{0}, block(0, 1, 4, 3)), // 8 cells: rows 1-2 (overlaps both)
	}
	tr := []region.Region{
		makeRegion(4, []float64{0}, block(0, 1, 4, 3)), // rows 1-2
		makeRegion(4, []float64{0}, block(0, 0, 4, 2)),
		makeRegion(4, []float64{0}, block(0, 2, 4, 4)),
	}
	// Pair the overlapping query region q2 with the overlapping target t0
	// (greedy bait: biggest immediate gain 16), and the clean pairs
	// (q0,t1), (q1,t2). Optimal: take the two clean pairs covering
	// everything (32); greedy takes (q2,t0) first (16 gain), then clean
	// pairs still available... to force a trap, restrict pairs so q2/t0
	// conflicts: pairs (q2,t1) and (q2,t2) block each other.
	pairs := []Pair{{2, 0}, {0, 1}, {1, 2}, {0, 0}, {1, 0}}
	exact, err := Score(q, tr, pairs, 160, 160, Options{Algorithm: Exact})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Score(q, tr, pairs, 160, 160, Options{Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Similarity < greedy.Similarity-1e-12 {
		t.Fatalf("exact %v < greedy %v", exact.Similarity, greedy.Similarity)
	}
	// The exact solution must cover both images fully: q0+q1 and t1+t2.
	if exact.CoveredQ != 160 || exact.CoveredT != 160 {
		t.Fatalf("exact covered %v/%v, want 160/160", exact.CoveredQ, exact.CoveredT)
	}
}

// TestOrderingProperty: for any instance, quick >= exact >= greedy (quick
// relaxes one-to-one; exact is the optimal one-to-one; greedy is a
// heuristic one-to-one).
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const k = 4
		nq, nt := 1+rng.Intn(4), 1+rng.Intn(4)
		mk := func() region.Region {
			var cells [][2]int
			for y := 0; y < k; y++ {
				for x := 0; x < k; x++ {
					if rng.Intn(3) == 0 {
						cells = append(cells, [2]int{x, y})
					}
				}
			}
			return makeRegion(k, []float64{rng.Float64()}, cells)
		}
		var q, tr []region.Region
		for i := 0; i < nq; i++ {
			q = append(q, mk())
		}
		for i := 0; i < nt; i++ {
			tr = append(tr, mk())
		}
		var pairs []Pair
		for qi := 0; qi < nq; qi++ {
			for ti := 0; ti < nt; ti++ {
				if rng.Intn(2) == 0 {
					pairs = append(pairs, Pair{qi, ti})
				}
			}
		}
		score := func(a Algorithm) float64 {
			res, err := Score(q, tr, pairs, 100, 100, Options{Algorithm: a})
			if err != nil {
				t.Fatal(err)
			}
			return res.Similarity
		}
		qk, ex, gr := score(Quick), score(Exact), score(Greedy)
		return qk >= ex-1e-12 && ex >= gr-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyMatchesExactOnDisjointRegions: with disjoint regions greedy is
// optimal.
func TestGreedyMatchesExactOnDisjointRegions(t *testing.T) {
	var q, tr []region.Region
	var pairs []Pair
	for i := 0; i < 4; i++ {
		q = append(q, makeRegion(4, []float64{float64(i)}, block(i, 0, i+1, 4)))
		tr = append(tr, makeRegion(4, []float64{float64(i)}, block(i, 0, i+1, 4)))
		pairs = append(pairs, Pair{i, i})
	}
	exact, err := Score(q, tr, pairs, 100, 100, Options{Algorithm: Exact})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Score(q, tr, pairs, 100, 100, Options{Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Similarity-greedy.Similarity) > 1e-12 {
		t.Fatalf("greedy %v != exact %v on disjoint regions", greedy.Similarity, exact.Similarity)
	}
	if exact.Similarity != 1 {
		t.Fatalf("similarity = %v, want 1", exact.Similarity)
	}
}

func TestPairsWithin(t *testing.T) {
	q := []region.Region{makeRegion(4, []float64{0, 0}, block(0, 0, 1, 1))}
	tr := []region.Region{
		makeRegion(4, []float64{0.05, 0}, block(0, 0, 1, 1)),
		makeRegion(4, []float64{1, 1}, block(0, 0, 1, 1)),
	}
	pairs := PairsWithin(q, tr, 0.1)
	if len(pairs) != 1 || pairs[0] != (Pair{0, 0}) {
		t.Fatalf("PairsWithin = %v", pairs)
	}
	if got := PairsWithin(q, tr, 2); len(got) != 2 {
		t.Fatalf("wide eps found %d pairs", len(got))
	}
}

func TestPairsWithinBBox(t *testing.T) {
	mk := func(lo, hi float64) region.Region {
		r := makeRegion(4, []float64{(lo + hi) / 2}, block(0, 0, 1, 1))
		r.Min = []float64{lo}
		r.Max = []float64{hi}
		return r
	}
	q := []region.Region{mk(0.0, 0.2)}
	tr := []region.Region{mk(0.25, 0.4), mk(0.5, 0.9)}
	// With eps 0.1 the first target box (gap 0.05) matches; the second
	// (gap 0.3) does not.
	pairs := PairsWithinBBox(q, tr, 0.1)
	if len(pairs) != 1 || pairs[0] != (Pair{0, 0}) {
		t.Fatalf("PairsWithinBBox = %v", pairs)
	}
}
